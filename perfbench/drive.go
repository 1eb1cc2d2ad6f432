package main

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"time"

	"repro/internal/fsm"
	"repro/internal/session"
	"repro/internal/types"
)

// checkError marks a failed correctness check, as opposed to a session
// that failed to run: the first makes the run incorrect, the second counts
// as a failed operation.
type checkError struct{ err error }

func (e *checkError) Error() string { return e.err.Error() }
func (e *checkError) Unwrap() error { return e.err }

func checkFail(format string, args ...any) error {
	return &checkError{fmt.Errorf(format, args...)}
}

// strategy decides one role's choices and payloads and checks what it
// receives, for drive.
type strategy interface {
	choose(options []fsm.Transition) int
	payload(act fsm.Action) any
	received(act fsm.Action, v any) error
}

// drive runs one role over a monitored endpoint by following its verified
// machine, timing every Endpoint call. loops > 0 stops the role once some
// state is entered for the (loops+1)-th time — after loops turns of an
// infinite protocol, with session.ErrStopped; loops == 0 runs to the final
// state. It returns the number of messages the role received.
func drive(ep *session.Endpoint, m *fsm.FSM, st strategy, loops int, r *rec, sess uint32, parent int32) (int, error) {
	cur := m.Initial()
	var visits []int
	if loops > 0 {
		visits = make([]int, m.NumStates())
	}
	recvs := 0
	for {
		if visits != nil {
			visits[cur]++
			if visits[cur] > loops {
				return recvs, session.ErrStopped
			}
		}
		ts := m.Transitions(cur)
		if len(ts) == 0 {
			return recvs, nil
		}
		if ts[0].Act.Dir == fsm.Send {
			t := ts[0]
			if len(ts) > 1 {
				t = ts[st.choose(ts)]
			}
			v := st.payload(t.Act)
			t0 := r.now()
			err := ep.Send(t.Act.Peer, t.Act.Label, v)
			r.leaf(lSend, sess, parent, t0)
			if err != nil {
				return recvs, err
			}
			cur = t.To
			continue
		}
		t0 := r.now()
		label, v, err := ep.Receive(ts[0].Act.Peer)
		r.leaf(lRecv, sess, parent, t0)
		if err != nil {
			return recvs, err
		}
		recvs++
		next := fsm.State(-1)
		for _, t := range ts {
			if t.Act.Label == label {
				if err := st.received(t.Act, v); err != nil {
					return recvs, err
				}
				next = t.To
				break
			}
		}
		if next < 0 {
			return recvs, fmt.Errorf("role %s: label %s not expected in state %d", ep.Role(), label, cur)
		}
		cur = next
	}
}

// roleRun is one role of a monitored session: its strategy and turn budget.
type roleRun struct {
	st    strategy
	loops int
}

// runMonitored runs one fresh instance of base with every endpoint's
// deadline armed, one goroutine per role. It returns the messages received
// across roles.
func runMonitored(base *session.Session, roles map[types.Role]roleRun, deadline time.Duration, recs []*rec, sess uint32, parent int32) (int, error) {
	inst := base.Fork()
	procs := map[types.Role]func(*session.Endpoint) error{}
	// Roles take recorders in name order, so a strategy that records spans
	// itself (fftWorker) shares its role's recorder and no other.
	order := slices.Sorted(maps.Keys(roles))
	recvs := make([]int, len(order))
	for i, role := range order {
		rr, m := roles[role], inst.FSM(role)
		procs[role] = func(ep *session.Endpoint) error {
			ep.SetDeadline(time.Now().Add(deadline))
			n, err := drive(ep, m, rr.st, rr.loops, recs[i], sess, parent)
			recvs[i] = n
			return err
		}
	}
	err := inst.Run(procs)
	for _, r := range recs {
		r.merge()
	}
	total := 0
	for _, n := range recvs {
		total += n
	}
	return total, err
}

// classify sorts a session error into a check failure or a failed run.
func classify(err error) (check, failed error) {
	var ce *checkError
	if errors.As(err, &ce) {
		return ce, nil
	}
	return nil, err
}

// labelIndex returns the index of the option carrying label.
func labelIndex(options []fsm.Transition, label types.Label) int {
	for i, t := range options {
		if t.Act.Label == label {
			return i
		}
	}
	return 0
}

// streamSource sends values 0..n-1, then stop.
type streamSource struct{ n, sent int }

func (s *streamSource) choose(options []fsm.Transition) int {
	if s.sent < s.n {
		return labelIndex(options, "value")
	}
	return labelIndex(options, "stop")
}

func (s *streamSource) payload(act fsm.Action) any {
	if act.Label != "value" {
		return nil
	}
	v := int32(s.sent)
	s.sent++
	return v
}

func (s *streamSource) received(fsm.Action, any) error { return nil }

// streamSink checks it receives exactly 0..n-1 in order. When rtt is set it
// also records, in µs, each round trip from sending ready to receiving the
// value it asked for.
type streamSink struct {
	got   int
	rtt   *[]float64
	asked time.Time
}

func (s *streamSink) choose([]fsm.Transition) int { return 0 }

func (s *streamSink) payload(fsm.Action) any {
	if s.rtt != nil {
		s.asked = time.Now()
	}
	return nil
}

func (s *streamSink) received(act fsm.Action, v any) error {
	if act.Label != "value" {
		return nil
	}
	if s.rtt != nil {
		*s.rtt = append(*s.rtt, float64(time.Since(s.asked))/1e3)
	}
	if err := checkStreamValue(s.got, v); err != nil {
		return err
	}
	s.got++
	return nil
}

func checkStreamValue(want int, v any) error {
	if got, ok := v.(int32); !ok || int(got) != want {
		return checkFail("streaming sink: value %d arrived as %v", want, v)
	}
	return nil
}

// checkStreamCount: the sink saw every value the source sent.
func checkStreamCount(got, n int) error {
	if got != n {
		return checkFail("streaming sink received %d values, want %d", got, n)
	}
	return nil
}

// ringRole carries the ring token as a hop counter: role k of the ring
// (a=0, b=1, c=2) stamps its i-th send with hop 3i+k, which is exactly the
// counter a circulating token would hold, and checks the same of what it
// receives.
type ringRole struct{ off, sent, got int }

func (r *ringRole) choose([]fsm.Transition) int { return 0 }

func (r *ringRole) payload(fsm.Action) any {
	v := 3*r.sent + r.off
	r.sent++
	return v
}

func (r *ringRole) received(_ fsm.Action, v any) error {
	want := 3*r.got + (r.off+2)%3
	r.got++
	if h, ok := v.(int); !ok || h != want {
		return checkFail("ring: token reached role %d with hop %v, want %d", r.off, v, want)
	}
	return nil
}

// checkRingHops: the token's hop count equals the steps the ring ran.
func checkRingHops(hops, laps int) error {
	if hops != 3*laps {
		return checkFail("ring: %d hops over %d laps, want %d", hops, laps, 3*laps)
	}
	return nil
}

// dbSource sends the seeded values in order; dbKernel forwards them from
// source to sink; dbSink checks they arrive in order.
type dbSource struct {
	vals []int
	sent int
}

func (s *dbSource) choose([]fsm.Transition) int { return 0 }
func (s *dbSource) payload(act fsm.Action) any {
	if act.Label != "value" {
		return nil
	}
	v := s.vals[s.sent]
	s.sent++
	return v
}
func (s *dbSource) received(fsm.Action, any) error { return nil }

type dbKernel struct{ fifo []any }

func (k *dbKernel) choose([]fsm.Transition) int { return 0 }
func (k *dbKernel) payload(act fsm.Action) any {
	if act.Label != "value" {
		return nil
	}
	v := k.fifo[0]
	k.fifo = k.fifo[1:]
	return v
}
func (k *dbKernel) received(act fsm.Action, v any) error {
	if act.Label == "value" {
		k.fifo = append(k.fifo, v)
	}
	return nil
}

type dbSink struct {
	vals []int
	got  int
}

func (s *dbSink) choose([]fsm.Transition) int { return 0 }
func (s *dbSink) payload(fsm.Action) any      { return nil }
func (s *dbSink) received(act fsm.Action, v any) error {
	if act.Label != "value" {
		return nil
	}
	if s.got >= len(s.vals) || v != any(s.vals[s.got]) {
		return checkFail("double buffering: sink's value %d arrived as %v", s.got, v)
	}
	s.got++
	return nil
}

// dft is the benchmark's own O(n²) discrete Fourier transform of one row.
func dft(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := range out {
		var sum complex128
		for t, v := range x {
			s, c := math.Sincos(-2 * math.Pi * float64(k*t%n) / float64(n))
			sum += v * complex(c, s)
		}
		out[k] = sum
	}
	return out
}

// fftTolerance bounds |parallel − DFT| per output sample. Inputs lie in the
// unit square, so an 8-point output is at most 8√2 in magnitude; three
// butterfly stages round at most a few ulps of that.
const fftTolerance = 1e-9

// bitrev3 reverses the low three bits: the parallel butterfly leaves the
// DFT's k-th output on worker bitrev3(k).
func bitrev3(j int) int { return (j&1)<<2 | j&2 | (j>>2)&1 }

// checkFFT compares the eight workers' output columns with the DFT of every
// row of the input matrix (columns cols).
func checkFFT(cols, out [][]complex128) error {
	if len(out) != 8 {
		return checkFail("fft: %d output columns, want 8", len(out))
	}
	row := make([]complex128, 8)
	for r := range cols[0] {
		for j := range row {
			row[j] = cols[j][r]
		}
		want := dft(row)
		for k, w := range want {
			col := out[bitrev3(k)]
			if len(col) != len(cols[0]) {
				return checkFail("fft: worker %d returned %d rows, want %d", bitrev3(k), len(col), len(cols[0]))
			}
			if d := col[r] - w; math.Hypot(real(d), imag(d)) > fftTolerance {
				return checkFail("fft: row %d output %d is %v, DFT gives %v", r, k, col[r], w)
			}
		}
	}
	return nil
}
