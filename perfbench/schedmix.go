package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/types"
)

// The sched-mix workload is a closed loop that keeps schedInFlight short
// pooled sessions in flight on one internal/sched scheduler, drawn by the
// seed from every registry protocol. Admission, stepping, pooling and
// stealing do the work; the substrate only sees Try* probes.

const (
	schedInFlight = 512
	// schedSteps is the per-role step budget; infinite protocols stop at
	// it, finite ones end first.
	schedSteps = 64
	// schedCopies is how often a round draws each protocol.
	schedCopies = 32
	// schedWindow is the least length of one measurement window.
	schedWindow = 500 * time.Millisecond
	// schedDeadline is armed on every session: far above a session's run
	// time, so it bounds a hang without ever firing.
	schedDeadline = 10 * time.Second
)

// stamps are the boxed payloads a stamping strategy sends: the i-th message
// on a route carries stamp i in the form its sort admits. Boxing them once
// keeps the strategy from allocating.
type stamps struct {
	ints, strs, vecs, bools []any
}

func newStamps(n int) *stamps {
	s := &stamps{ints: make([]any, n), strs: make([]any, n), vecs: make([]any, n), bools: make([]any, n)}
	for i := 0; i < n; i++ {
		s.ints[i] = i
		s.strs[i] = fmt.Sprintf("m%d", i)
		s.vecs[i] = []complex128{complex(float64(i), 0)}
		s.bools[i] = i%2 == 1
	}
	return s
}

func (s *stamps) table(sort types.Sort) []any {
	switch sort {
	case types.Str:
		return s.strs
	case types.Bool:
		return s.bools
	case protocols.FFTColumnSort:
		return s.vecs
	}
	return s.ints
}

// matchStamp reports whether v is stamp seq of the sort.
func (s *stamps) matchStamp(sort types.Sort, v any, seq int) bool {
	if seq >= len(s.ints) {
		return false
	}
	if sort == protocols.FFTColumnSort {
		c, ok := v.([]complex128)
		return ok && len(c) == 1 && c[0] == complex(float64(seq), 0)
	}
	return v == s.table(sort)[seq]
}

// stampStrategy drives one role of a pooled session: round-robin choices,
// and on every route it sends stamp 0, 1, 2, ... and checks that it
// receives them in that order. Counters survive ResetStrategy, which the
// scheduler calls when it recycles the instance.
type stampStrategy struct {
	st        *stamps
	peers     []types.Role
	sent, got []int
	n         int

	checked, wrong int64
}

func newStampStrategy(st *stamps, peers []types.Role) *stampStrategy {
	return &stampStrategy{st: st, peers: peers, sent: make([]int, len(peers)), got: make([]int, len(peers))}
}

func (s *stampStrategy) peer(r types.Role) int {
	for i, p := range s.peers {
		if p == r {
			return i
		}
	}
	return 0
}

func (s *stampStrategy) Choose(_ fsm.State, options []fsm.Transition) int {
	s.n++
	return (s.n - 1) % len(options)
}

func (s *stampStrategy) Payload(act fsm.Action) any {
	i := s.peer(act.Peer)
	seq := s.sent[i]
	s.sent[i]++
	if seq >= len(s.st.ints) {
		return nil
	}
	return s.st.table(act.Sort)[seq]
}

func (s *stampStrategy) Received(act fsm.Action, v any) {
	i := s.peer(act.Peer)
	seq := s.got[i]
	s.got[i]++
	s.checked++
	if !s.st.matchStamp(act.Sort, v, seq) {
		s.wrong++
	}
}

func (s *stampStrategy) ResetStrategy() {
	s.n = 0
	clear(s.sent)
	clear(s.got)
}

// schedProto is one protocol of the mix with its verified base session.
type schedProto struct {
	name string
	base *session.Session
	// strat makes the strategies of new pooled instances and remembers
	// them, so their counters can be summed at the end.
	strat func(types.Role) session.Strategy
}

// schedMix owns the verified bases and every strategy they made.
type schedMix struct {
	protos []schedProto
	st     *stamps
	mu     sync.Mutex
	strats []*stampStrategy
}

func buildSchedMix() (*schedMix, error) {
	m := &schedMix{st: newStamps(schedSteps + 1)}
	for _, e := range append(protocols.Registry(), protocols.ExtraRegistry()...) {
		var base *session.Session
		var err error
		if e.Global != nil {
			base, err = topDown(e)
		} else {
			// Bottom-up entries (Hospital) run their k-MC-verified plain
			// endpoints; the optimised Hospital is not k-MC.
			base, err = session.BottomUp(e.KmcBound, protocols.Machines(protocols.FSMs(e.Locals))...)
		}
		if err != nil {
			return nil, fmt.Errorf("verifying %s: %w", e.Name, err)
		}
		roles := base.Roles()
		m.protos = append(m.protos, schedProto{name: e.Name, base: base, strat: func(r types.Role) session.Strategy {
			var peers []types.Role
			for _, p := range roles {
				if p != r {
					peers = append(peers, p)
				}
			}
			s := newStampStrategy(m.st, peers)
			m.mu.Lock()
			m.strats = append(m.strats, s)
			m.mu.Unlock()
			return s
		}})
	}
	return m, nil
}

// slot is one place in the closed loop; a session holds it from admission
// to onDone, which records the latency and hands the slot back.
type slot struct {
	start  time.Time
	window int // measurement window the session was admitted in
	lat    []windowed
	errs   []error
	done   int
	free   chan *slot
	onDone func(error)
}

// windowed is one session's latency in µs, tagged with its window.
type windowed struct {
	window int
	us     float64
}

func (sl *slot) finish(err error) {
	sl.lat = append(sl.lat, windowed{sl.window, float64(time.Since(sl.start)) / 1e3})
	sl.done++
	if err != nil {
		sl.errs = append(sl.errs, err)
	}
	sl.free <- sl
}

// schedRun is a scheduler with its closed loop of slots.
type schedRun struct {
	s     *sched.Scheduler
	slots []*slot
	free  chan *slot
}

func newSchedRun() *schedRun {
	r := &schedRun{
		s:    sched.New(sched.Options{Workers: runtime.GOMAXPROCS(0)}),
		free: make(chan *slot, schedInFlight),
	}
	for i := 0; i < schedInFlight; i++ {
		sl := &slot{free: r.free}
		sl.onDone = sl.finish
		r.slots = append(r.slots, sl)
		r.free <- sl
	}
	return r
}

// round admits one seeded deck of sessions, schedCopies of each protocol,
// into the closed loop. It returns how many admissions failed.
func (r *schedRun) round(cfg *config, m *schedMix, sessBase uint32, window int) int {
	deck := make([]int, 0, schedCopies*len(m.protos))
	for i := range m.protos {
		for c := 0; c < schedCopies; c++ {
			deck = append(deck, i)
		}
	}
	cfg.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	refused := 0
	for i, pi := range deck {
		p := m.protos[pi]
		sl := <-r.free
		sl.start = time.Now()
		sl.window = window
		t0 := cfg.tr.now()
		err := r.s.GoSessionPooled(p.base, schedSteps, p.strat, sl.start.Add(schedDeadline), sl.onDone)
		cfg.tr.leaf(lAdmit, sessBase+uint32(i), -1, t0)
		if err != nil {
			refused++
			fmt.Fprintf(os.Stderr, "perfbench: sched-mix: admitting %s: %v\n", p.name, err)
			r.free <- sl
		}
	}
	return refused
}

// drain waits for every admitted session to finish.
func (r *schedRun) drain() {
	for i := 0; i < schedInFlight; i++ {
		<-r.free
	}
	for _, sl := range r.slots {
		r.free <- sl
	}
}

// reset clears the slots' records after the warm-up.
func (r *schedRun) reset() {
	for _, sl := range r.slots {
		sl.lat, sl.errs, sl.done = sl.lat[:0], nil, 0
	}
}

// checkSchedCounts: every admitted session completed, and every receive saw
// the stamp its peer sent on that route, in order.
func checkSchedCounts(admitted, completed int, checked, wrong int64) error {
	if admitted != completed {
		return checkFail("sched-mix: %d sessions admitted, %d completed", admitted, completed)
	}
	if checked == 0 || wrong != 0 {
		return checkFail("sched-mix: %d of %d receives saw a payload other than the one sent on that route", wrong, checked)
	}
	return nil
}

func runSchedMix(cfg *config) (*outcome, error) {
	type setup struct {
		mix *schedMix
		run *schedRun
	}
	su, setupS, err := repeatSetup(func() (setup, error) {
		cfg.rng.Seed(cfg.seed)
		m, err := buildSchedMix()
		if err != nil {
			return setup{}, err
		}
		r := newSchedRun()
		// Warm-up: one round fills the per-worker pools.
		r.round(cfg, m, 0, 0)
		r.drain()
		r.reset()
		return setup{m, r}, nil
	}, func(s setup) { s.run.s.Close() })
	if err != nil {
		return nil, err
	}
	m, r := su.mix, su.run
	defer r.s.Close()
	for _, s := range m.strats {
		s.checked, s.wrong = 0, 0
	}
	cfg.rng.Seed(cfg.seed + 1)

	out := &outcome{}
	refused := 0
	steals0 := r.s.Steals()
	before := readProc()
	start := time.Now()
	deadline := start.Add(cfg.run)
	perRound := schedCopies * len(m.protos)
	// The run is cut into windows of whole rounds. Each end-to-end metric
	// is the median of its per-window values, so a burst of CPU taken from
	// a small shared machine by other tenants moves a few windows, not
	// the result.
	var windowSecs []float64
	var windowAdmits []int
	wStart, wAdmits := start, 0
	for rounds := 0; time.Now().Before(deadline); rounds++ {
		refused += r.round(cfg, m, uint32(rounds*perRound), len(windowSecs))
		out.attempted += perRound
		wAdmits += perRound
		if now := time.Now(); now.Sub(wStart) >= schedWindow || !now.Before(deadline) {
			windowSecs = append(windowSecs, now.Sub(wStart).Seconds())
			windowAdmits = append(windowAdmits, wAdmits)
			wStart, wAdmits = now, 0
		}
	}
	r.drain()
	pd := before.to(readProc())
	steals := r.s.Steals() - steals0

	byWindow := make([][]float64, len(windowSecs))
	completed := 0
	out.failed = refused
	for _, sl := range r.slots {
		for _, l := range sl.lat {
			byWindow[l.window] = append(byWindow[l.window], l.us)
		}
		completed += sl.done
		for _, e := range sl.errs {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: sched-mix: %v\n", e)
		}
	}
	// The closed loop admits as fast as sessions finish, so a window's
	// admissions over its length is its completion rate.
	// The tail is each window's p90. The p99 follows the moments the host
	// stalled one worker's vCPU, and its median spread 22% over ten runs.
	var rate, p50, p90, p99 []float64
	for w, lat := range byWindow {
		rate = append(rate, float64(windowAdmits[w])/windowSecs[w])
		p50 = append(p50, median(lat))
		p90 = append(p90, percentile(lat, 0.9))
		p99 = append(p99, percentile(lat, 0.99))
	}
	var checked, wrong int64
	for _, s := range m.strats {
		checked += s.checked
		wrong += s.wrong
	}
	if err := checkSchedCounts(out.attempted-refused, completed, checked, wrong); err != nil {
		out.checkErrs = append(out.checkErrs, err)
	}
	n := float64(completed)
	out.e2e = e2eMetrics{
		setupS:      setupS,
		throughput:  median(rate),
		latencyP50:  median(p50),
		latencyTail: median(p90),
	}
	out.layers = layerMetrics{
		"sched.session_p99_us":    median(p99),
		"sched.steals_per_1k":     float64(steals) / n * 1e3,
		"proc.gc_per_1k_sessions": float64(pd.gcs) / n * 1e3,
		"proc.allocs_per_session": float64(pd.allocs) / n,
		"proc.cpu_util":           pd.cpu.Seconds() / pd.wall.Seconds(),
	}
	return out, nil
}
