package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	gendb "repro/examples/gen/doublebuffer"
	genfft "repro/examples/gen/fft"
	genring "repro/examples/gen/ring"
	genstreaming "repro/examples/gen/streaming"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/session"
	"repro/internal/types"
)

// The fig6 workload runs the paper's Fig. 6 protocols as long single
// sessions on the in-memory ring network, one goroutine per role: each
// protocol in projected and AMR-optimised form over monitored endpoints with
// a deadline armed, and each through its generated typed API.

// Session sizes. An armed session either keeps pace with the substrate or,
// once a receiver has napped, waits out a nap on most later hops (see
// README.md); which one happens, and how often, follows how the host
// schedules the vCPUs. Many short sessions per kind let the run report each
// kind's median and 90th-percentile session, which that does not move.
const (
	fig6StreamN  = 32 // streaming values
	fig6RingLaps = 16 // ring laps (3 hops each)
	fig6DBTurns  = 16 // double-buffering turns (4 messages each)
	fig6FFTRows  = 64 // rows of the n×8 FFT matrix
	// fig6Reps is how often a round runs each kind.
	fig6Reps = 16
	// fig6Deadline is armed on every monitored endpoint: far above any
	// session's run time, so it bounds a hang without ever firing.
	fig6Deadline = 10 * time.Second
)

// fig6Inputs are the seeded inputs of one run.
type fig6Inputs struct {
	fftCols [][]complex128 // 8 columns of fig6FFTRows rows
	dbVals  []int
}

func makeFig6Inputs(cfg *config) fig6Inputs {
	in := fig6Inputs{fftCols: make([][]complex128, 8), dbVals: make([]int, fig6DBTurns)}
	for j := range in.fftCols {
		col := make([]complex128, fig6FFTRows)
		for r := range col {
			col[r] = complex(2*cfg.rng.Float64()-1, 2*cfg.rng.Float64()-1)
		}
		in.fftCols[j] = col
	}
	for i := range in.dbVals {
		in.dbVals[i] = cfg.rng.Intn(1 << 30)
	}
	return in
}

// fig6Bases are the verified base sessions: projected and AMR-optimised
// (hand-written, certified against the projection) per protocol.
type fig6Bases struct {
	stream, streamOpt, ring, ringOpt, db, dbOpt, fft, fftOpt *session.Session
}

func topDown(e protocols.Entry) (*session.Session, error) {
	opt := map[types.Role]*fsm.FSM{}
	for r, l := range e.Optimised {
		m, err := fsm.FromLocal(r, l)
		if err != nil {
			return nil, err
		}
		opt[r] = m
	}
	s, err := session.TopDown(e.Global, opt, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("verifying %s: %w", e.Name, err)
	}
	return s, nil
}

func buildFig6Bases() (fig6Bases, error) {
	var b fig6Bases
	var err error
	for _, p := range []struct {
		dst **session.Session
		e   protocols.Entry
	}{
		{&b.stream, protocols.Streaming()}, {&b.streamOpt, protocols.OptimisedStreaming()},
		{&b.ring, protocols.Ring()}, {&b.ringOpt, protocols.OptimisedRing()},
		{&b.db, protocols.DoubleBuffering()}, {&b.dbOpt, protocols.OptimisedDoubleBuffering()},
		{&b.fft, protocols.FFT()}, {&b.fftOpt, protocols.OptimisedFFT()},
	} {
		if *p.dst, err = topDown(p.e); err != nil {
			return b, err
		}
	}
	return b, nil
}

// fig6Session is one session kind of a round.
type fig6Session struct {
	name string
	// run executes one session and returns the messages it delivered.
	run func(recs []*rec, sess uint32, parent int32) (int, error)
}

func fig6Sessions(b fig6Bases, in fig6Inputs) []fig6Session {
	monStream := func(base *session.Session) func([]*rec, uint32, int32) (int, error) {
		return func(recs []*rec, sess uint32, parent int32) (int, error) {
			sink := &streamSink{}
			n, err := runMonitored(base, map[types.Role]roleRun{
				"s": {st: &streamSource{n: fig6StreamN}},
				"t": {st: sink},
			}, fig6Deadline, recs, sess, parent)
			if err == nil {
				err = checkStreamCount(sink.got, fig6StreamN)
			}
			return n, err
		}
	}
	monRing := func(base *session.Session) func([]*rec, uint32, int32) (int, error) {
		return func(recs []*rec, sess uint32, parent int32) (int, error) {
			n, err := runMonitored(base, map[types.Role]roleRun{
				"a": {&ringRole{off: 0}, fig6RingLaps},
				"b": {&ringRole{off: 1}, fig6RingLaps},
				"c": {&ringRole{off: 2}, fig6RingLaps},
			}, fig6Deadline, recs, sess, parent)
			if err == nil {
				err = checkRingHops(n, fig6RingLaps)
			}
			return n, err
		}
	}
	monDB := func(base *session.Session) func([]*rec, uint32, int32) (int, error) {
		return func(recs []*rec, sess uint32, parent int32) (int, error) {
			sink := &dbSink{vals: in.dbVals}
			n, err := runMonitored(base, map[types.Role]roleRun{
				"s": {&dbSource{vals: in.dbVals}, fig6DBTurns},
				"k": {&dbKernel{}, fig6DBTurns},
				"t": {sink, fig6DBTurns},
			}, fig6Deadline, recs, sess, parent)
			if err == nil && sink.got != fig6DBTurns {
				err = checkFail("double buffering: sink received %d values, want %d", sink.got, fig6DBTurns)
			}
			return n, err
		}
	}
	monFFT := func(base *session.Session) func([]*rec, uint32, int32) (int, error) {
		return func(recs []*rec, sess uint32, parent int32) (int, error) {
			workers := make([]*fftWorker, 8)
			roles := map[types.Role]roleRun{}
			for j, r := range protocols.FFTRoles() {
				workers[j] = &fftWorker{j: j, cur: in.fftCols[j], r: recs[j], sess: sess, parent: parent}
				roles[r] = roleRun{st: workers[j]}
			}
			n, err := runMonitored(base, roles, fig6Deadline, recs, sess, parent)
			if err == nil {
				out := make([][]complex128, 8)
				for j, w := range workers {
					out[j] = w.cur
				}
				err = checkFFT(in.fftCols, out)
			}
			return n, err
		}
	}
	return []fig6Session{
		{"streaming/monitored", monStream(b.stream)},
		{"streaming-amr/monitored", monStream(b.streamOpt)},
		{"ring/monitored", monRing(b.ring)},
		{"ring-amr/monitored", monRing(b.ringOpt)},
		{"doublebuffer/monitored", monDB(b.db)},
		{"doublebuffer-amr/monitored", monDB(b.dbOpt)},
		{"fft/monitored", monFFT(b.fft)},
		{"fft-amr/monitored", monFFT(b.fftOpt)},
		{"streaming-amr/generated", func(recs []*rec, sess uint32, parent int32) (int, error) {
			return genStreaming(fig6StreamN, recs, sess, parent)
		}},
		{"ring/generated", func(recs []*rec, sess uint32, parent int32) (int, error) {
			return genRing(fig6RingLaps, recs, sess, parent)
		}},
		{"doublebuffer/generated", func(recs []*rec, sess uint32, parent int32) (int, error) {
			return genDB(fig6DBTurns, recs, sess, parent)
		}},
		{"fft-amr/generated", func(recs []*rec, sess uint32, parent int32) (int, error) {
			out, err := genFFT(in.fftCols, recs, sess, parent)
			if err == nil {
				err = checkFFT(in.fftCols, out)
			}
			return 24, err
		}},
	}
}

// fftWorker is one butterfly process: it sends its column for a stage,
// receives its partner's, and once both happened computes its next column
// through fft.StageOutput. Columns are shared with the partner by
// reference, so every stage writes a fresh slice.
type fftWorker struct {
	j      int
	cur    []complex128
	stage  int
	sent   bool
	theirs []complex128
	r      *rec
	sess   uint32
	parent int32
}

func (w *fftWorker) choose([]fsm.Transition) int { return 0 }

func (w *fftWorker) payload(fsm.Action) any {
	v := w.cur
	w.sent = true
	w.advance()
	return v
}

func (w *fftWorker) received(_ fsm.Action, v any) error {
	col, ok := v.([]complex128)
	if !ok {
		return checkFail("fft: worker %d received %T", w.j, v)
	}
	w.theirs = col
	w.advance()
	return nil
}

func (w *fftWorker) advance() {
	if !w.sent || w.theirs == nil {
		return
	}
	w.cur = fftStage(w.j, w.stage, w.cur, w.theirs, w.r, w.sess, w.parent)
	w.stage++
	w.sent, w.theirs = false, nil
}

func fftStage(j, stage int, mine, theirs []complex128, r *rec, sess uint32, parent int32) []complex128 {
	next := make([]complex128, len(mine))
	t0 := r.now()
	fft.StageOutput(8, j, fft.Stages(8)[stage], mine, theirs, next)
	r.leaf(lFFTStage, sess, parent, t0)
	return next
}

// genStreaming runs the generated streaming API (the derived AMR schedule,
// two values ahead of their readys) and checks the sink sees 0..n-1.
func genStreaming(n int, recs []*rec, sess uint32, parent int32) (int, error) {
	rs, rt := recs[0], recs[1]
	got := 0
	var bad error
	err := genstreaming.Run(genstreaming.NewNetwork(), genstreaming.Procs{
		S: func(s genstreaming.S0) (genstreaming.SEnd, error) {
			var end genstreaming.SEnd
			t0 := rs.now()
			s1, err := s.SendValue(0)
			rs.leaf(lGenrt, sess, parent, t0)
			if err != nil {
				return end, err
			}
			t0 = rs.now()
			loop, err := s1.SendValue(1)
			rs.leaf(lGenrt, sess, parent, t0)
			if err != nil {
				return end, err
			}
			for i := 2; i < n; i++ {
				t0 = rs.now()
				s4, err := loop.SendValue(int32(i))
				rs.leaf(lGenrt, sess, parent, t0)
				if err != nil {
					return end, err
				}
				t0 = rs.now()
				loop, err = s4.RecvReady()
				rs.leaf(lGenrt, sess, parent, t0)
				if err != nil {
					return end, err
				}
			}
			s5, err := loop.SendStop()
			if err != nil {
				return end, err
			}
			s6, err := s5.RecvReady()
			if err != nil {
				return end, err
			}
			s7, err := s6.RecvReady()
			if err != nil {
				return end, err
			}
			return s7.RecvReady()
		},
		T: func(t genstreaming.T0) (genstreaming.TEnd, error) {
			for {
				t0 := rt.now()
				t2, err := t.SendReady()
				rt.leaf(lGenrt, sess, parent, t0)
				if err != nil {
					return genstreaming.TEnd{}, err
				}
				t0 = rt.now()
				b, err := t2.Branch()
				rt.leaf(lGenrt, sess, parent, t0)
				if err != nil {
					return genstreaming.TEnd{}, err
				}
				if b.Label == genstreaming.LabelStop {
					return b.StopNext, nil
				}
				if bad == nil {
					bad = checkStreamValue(got, b.ValuePayload)
				}
				got++
				t = b.ValueNext
			}
		},
	})
	for _, r := range recs[:2] {
		r.merge()
	}
	if err == nil {
		err = bad
	}
	if err == nil {
		err = checkStreamCount(got, n)
	}
	return 2*n + 2, err
}

// genRing circulates the token for laps rounds over the generated API; the
// generated v carries no payload, so the receivers count the hops.
func genRing(laps int, recs []*rec, sess uint32, parent int32) (int, error) {
	hops := make([]int, 3)
	op := func(i int, recv bool, f func() error) error {
		t0 := recs[i].now()
		err := f()
		recs[i].leaf(lGenrt, sess, parent, t0)
		if err == nil && recv {
			hops[i]++
		}
		return err
	}
	err := genring.Run(genring.NewNetwork(), genring.Procs{
		A: func(a genring.A0) error {
			for i := 0; i < laps; i++ {
				var a2 genring.A2
				if err := op(0, false, func() (err error) { a2, err = a.SendV(); return }); err != nil {
					return err
				}
				if err := op(0, true, func() (err error) { a, err = a2.RecvV(); return }); err != nil {
					return err
				}
			}
			return nil
		},
		B: func(b genring.B0) error {
			for i := 0; i < laps; i++ {
				var b2 genring.B2
				if err := op(1, true, func() (err error) { b2, err = b.RecvV(); return }); err != nil {
					return err
				}
				if err := op(1, false, func() (err error) { b, err = b2.SendV(); return }); err != nil {
					return err
				}
			}
			return nil
		},
		C: func(c genring.C0) error {
			for i := 0; i < laps; i++ {
				var c2 genring.C2
				if err := op(2, true, func() (err error) { c2, err = c.RecvV(); return }); err != nil {
					return err
				}
				if err := op(2, false, func() (err error) { c, err = c2.SendV(); return }); err != nil {
					return err
				}
			}
			return nil
		},
	})
	for _, r := range recs[:3] {
		r.merge()
	}
	if err == nil {
		err = checkRingHops(hops[0]+hops[1]+hops[2], laps)
	}
	return 3 * laps, err
}

// genDB runs turns of the generated double-buffering API and checks the
// sink received one value per turn.
func genDB(turns int, recs []*rec, sess uint32, parent int32) (int, error) {
	moved := 0
	op := func(r *rec, f func() error) error {
		t0 := r.now()
		err := f()
		r.leaf(lGenrt, sess, parent, t0)
		return err
	}
	err := gendb.Run(gendb.NewNetwork(), gendb.Procs{
		K: func(k gendb.K0) error {
			for i := 0; i < turns; i++ {
				var k2 gendb.K2
				var k3 gendb.K3
				var k4 gendb.K4
				if err := op(recs[0], func() (err error) { k2, err = k.SendReady(); return }); err != nil {
					return err
				}
				if err := op(recs[0], func() (err error) { k3, err = k2.RecvValue(); return }); err != nil {
					return err
				}
				if err := op(recs[0], func() (err error) { k4, err = k3.RecvReady(); return }); err != nil {
					return err
				}
				if err := op(recs[0], func() (err error) { k, err = k4.SendValue(); return }); err != nil {
					return err
				}
			}
			return nil
		},
		S: func(s gendb.S0) error {
			for i := 0; i < turns; i++ {
				var s2 gendb.S2
				if err := op(recs[1], func() (err error) { s2, err = s.RecvReady(); return }); err != nil {
					return err
				}
				if err := op(recs[1], func() (err error) { s, err = s2.SendValue(); return }); err != nil {
					return err
				}
			}
			return nil
		},
		T: func(t gendb.T0) error {
			for i := 0; i < turns; i++ {
				var t2 gendb.T2
				if err := op(recs[2], func() (err error) { t2, err = t.SendReady(); return }); err != nil {
					return err
				}
				if err := op(recs[2], func() (err error) { t, err = t2.RecvValue(); return }); err != nil {
					return err
				}
				moved++
			}
			return nil
		},
	})
	for _, r := range recs[:3] {
		r.merge()
	}
	if err == nil && moved != turns {
		err = checkFail("double buffering: generated sink received %d values, want %d", moved, turns)
	}
	return 4 * turns, err
}

// colSender and colReceiver are the two halves of one generated butterfly
// exchange; N is the state after both.
type colSender[R any] interface {
	SendCol([]complex128) (R, error)
}
type colReceiver[N any] interface {
	RecvCol() ([]complex128, N, error)
}

// exchange performs stage si of worker w's butterfly over the generated
// API: send the current column, receive the partner's, compute the next.
func exchange[S colSender[R], R colReceiver[N], N any](w *fftWorker, si int, s S) (N, error) {
	var zero N
	t0 := w.r.now()
	rs, err := s.SendCol(w.cur)
	w.r.leaf(lGenrt, w.sess, w.parent, t0)
	if err != nil {
		return zero, err
	}
	t0 = w.r.now()
	theirs, next, err := rs.RecvCol()
	w.r.leaf(lGenrt, w.sess, w.parent, t0)
	if err != nil {
		return zero, err
	}
	w.cur = fftStage(w.j, si, w.cur, theirs, w.r, w.sess, w.parent)
	return next, nil
}

// genFFT runs the butterfly over the generated API (the AMR all-send-first
// schedule) and returns the output columns in worker order.
func genFFT(cols [][]complex128, recs []*rec, sess uint32, parent int32) ([][]complex128, error) {
	ws := make([]*fftWorker, 8)
	for j := range ws {
		ws[j] = &fftWorker{j: j, cur: cols[j], r: recs[j], sess: sess, parent: parent}
	}
	err := genfft.Run(genfft.NewNetwork(), genfft.Procs{
		W0: func(s genfft.W00) (genfft.W0End, error) {
			s2, err := exchange[genfft.W00, genfft.W01, genfft.W02](ws[0], 0, s)
			if err != nil {
				return genfft.W0End{}, err
			}
			s4, err := exchange[genfft.W02, genfft.W03, genfft.W04](ws[0], 1, s2)
			if err != nil {
				return genfft.W0End{}, err
			}
			return exchange[genfft.W04, genfft.W05, genfft.W0End](ws[0], 2, s4)
		},
		W1: func(s genfft.W10) (genfft.W1End, error) {
			s2, err := exchange[genfft.W10, genfft.W11, genfft.W12](ws[1], 0, s)
			if err != nil {
				return genfft.W1End{}, err
			}
			s4, err := exchange[genfft.W12, genfft.W13, genfft.W14](ws[1], 1, s2)
			if err != nil {
				return genfft.W1End{}, err
			}
			return exchange[genfft.W14, genfft.W15, genfft.W1End](ws[1], 2, s4)
		},
		W2: func(s genfft.W20) (genfft.W2End, error) {
			s2, err := exchange[genfft.W20, genfft.W21, genfft.W22](ws[2], 0, s)
			if err != nil {
				return genfft.W2End{}, err
			}
			s4, err := exchange[genfft.W22, genfft.W23, genfft.W24](ws[2], 1, s2)
			if err != nil {
				return genfft.W2End{}, err
			}
			return exchange[genfft.W24, genfft.W25, genfft.W2End](ws[2], 2, s4)
		},
		W3: func(s genfft.W30) (genfft.W3End, error) {
			s2, err := exchange[genfft.W30, genfft.W31, genfft.W32](ws[3], 0, s)
			if err != nil {
				return genfft.W3End{}, err
			}
			s4, err := exchange[genfft.W32, genfft.W33, genfft.W34](ws[3], 1, s2)
			if err != nil {
				return genfft.W3End{}, err
			}
			return exchange[genfft.W34, genfft.W35, genfft.W3End](ws[3], 2, s4)
		},
		W4: func(s genfft.W40) (genfft.W4End, error) {
			s2, err := exchange[genfft.W40, genfft.W41, genfft.W42](ws[4], 0, s)
			if err != nil {
				return genfft.W4End{}, err
			}
			s4, err := exchange[genfft.W42, genfft.W43, genfft.W44](ws[4], 1, s2)
			if err != nil {
				return genfft.W4End{}, err
			}
			return exchange[genfft.W44, genfft.W45, genfft.W4End](ws[4], 2, s4)
		},
		W5: func(s genfft.W50) (genfft.W5End, error) {
			s2, err := exchange[genfft.W50, genfft.W51, genfft.W52](ws[5], 0, s)
			if err != nil {
				return genfft.W5End{}, err
			}
			s4, err := exchange[genfft.W52, genfft.W53, genfft.W54](ws[5], 1, s2)
			if err != nil {
				return genfft.W5End{}, err
			}
			return exchange[genfft.W54, genfft.W55, genfft.W5End](ws[5], 2, s4)
		},
		W6: func(s genfft.W60) (genfft.W6End, error) {
			s2, err := exchange[genfft.W60, genfft.W61, genfft.W62](ws[6], 0, s)
			if err != nil {
				return genfft.W6End{}, err
			}
			s4, err := exchange[genfft.W62, genfft.W63, genfft.W64](ws[6], 1, s2)
			if err != nil {
				return genfft.W6End{}, err
			}
			return exchange[genfft.W64, genfft.W65, genfft.W6End](ws[6], 2, s4)
		},
		W7: func(s genfft.W70) (genfft.W7End, error) {
			s2, err := exchange[genfft.W70, genfft.W71, genfft.W72](ws[7], 0, s)
			if err != nil {
				return genfft.W7End{}, err
			}
			s4, err := exchange[genfft.W72, genfft.W73, genfft.W74](ws[7], 1, s2)
			if err != nil {
				return genfft.W7End{}, err
			}
			return exchange[genfft.W74, genfft.W75, genfft.W7End](ws[7], 2, s4)
		},
	})
	for _, r := range recs {
		r.merge()
	}
	out := make([][]complex128, 8)
	for j, w := range ws {
		out[j] = w.cur
	}
	return out, err
}

func runFig6(cfg *config) (*outcome, error) {
	type setup struct {
		in    fig6Inputs
		bases fig6Bases
	}
	su, setupS, err := repeatSetup(func() (setup, error) {
		cfg.rng.Seed(cfg.seed)
		in := makeFig6Inputs(cfg)
		b, err := buildFig6Bases()
		return setup{in, b}, err
	}, nil)
	if err != nil {
		return nil, err
	}
	kinds := fig6Sessions(su.bases, su.in)
	recs := make([]*rec, 8)
	for i := range recs {
		recs[i] = cfg.tr.newRec()
	}

	out := &outcome{}
	// times[k] and msgsOf[k] are kind k's session times in µs and the
	// messages one of its sessions delivers.
	times := make([][]float64, len(kinds))
	msgsOf := make([]int, len(kinds))
	msgs := 0
	before := readProc()
	deadline := time.Now().Add(cfg.run)
	var sess uint32
	// Whole rounds only: every kind runs fig6Reps times per round.
	for time.Now().Before(deadline) {
		for i := 0; i < fig6Reps*len(kinds); i++ {
			ki := i % len(kinds)
			k := kinds[ki]
			sess++
			out.attempted++
			ps := cfg.tr.now()
			parent := cfg.tr.open(lSession, sess, -1)
			start := time.Now()
			n, err := k.run(recs, sess, parent)
			d := time.Since(start)
			cfg.tr.close(parent, lSession, ps)
			check, failed := classify(err)
			if check != nil {
				out.checkErrs = append(out.checkErrs, fmt.Errorf("%s: %w", k.name, check))
			}
			if failed != nil {
				out.failed++
				fmt.Fprintf(os.Stderr, "perfbench: fig6: %s: %v\n", k.name, failed)
				continue
			}
			times[ki] = append(times[ki], float64(d)/1e3)
			msgsOf[ki] = n
			msgs += n
		}
	}
	pd := before.to(readProc())
	// The suite's time is the sum over kinds of each kind's median (and 90th
	// percentile) session: a per-session percentile over the mix would jump
	// between kinds, and a mean would follow how many armed sessions fell
	// into naps, which the host decides (README.md).
	var p50, p90 float64
	roundMsgs, armed, napped := 0, 0, 0
	for k, ts := range times {
		m := median(append([]float64(nil), ts...))
		p50 += m
		p90 += percentile(ts, 0.9)
		roundMsgs += msgsOf[k]
		if strings.HasSuffix(kinds[k].name, "/monitored") {
			for _, t := range ts {
				armed++
				if t > 10*m {
					napped++
				}
			}
		}
	}
	out.e2e = e2eMetrics{
		setupS:      setupS,
		throughput:  float64(roundMsgs) / (p50 / 1e6),
		latencyP50:  p50,
		latencyTail: p90,
	}
	out.layers = layerMetrics{
		"proc.cpu_util":       pd.cpu.Seconds() / pd.wall.Seconds(),
		"proc.ctxsw_per_msg":  float64(pd.ctxsw) / float64(msgs),
		"proc.allocs_per_msg": float64(pd.allocs) / float64(msgs),
		// Armed sessions that took over ten times their kind's median: the
		// ones that fell into deadline naps.
		"session.armed_napped_share": float64(napped) / float64(armed),
	}
	return out, nil
}
