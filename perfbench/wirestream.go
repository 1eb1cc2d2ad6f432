package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/fsm"
	"repro/internal/netchan"
	"repro/internal/protocols"
	"repro/internal/scribble"
	"repro/internal/session"
	"repro/internal/types"
	"repro/internal/wire"
)

// The wire-stream workload runs two-role sessions over two unix-socket
// netchan fabrics in this one process, one fabric per role: plain Streaming
// (one ready per value), AMR-optimised Streaming (values run ahead), and a
// block protocol with a vec<complex128> payload. A session's two routes are
// its only two socket connections; sessions run one at a time.

// blocksScribble is the block protocol: p streams blocks of samples, c
// acknowledges each, until p is done.
const blocksScribble = `global protocol Blocks(role p, role c) {
  rec loop {
    choice at p {
      block(vec<complex128>) from p to c;
      ack() from c to p;
      continue loop;
    } or {
      done() from p to c;
    }
  }
}`

const (
	wireStreamN  = 1000 // streaming values per session
	wireBlocks   = 64   // blocks per block session
	wireBlockLen = 256  // complex128 samples per block
	// wireDeadline bounds a session through its context, far above its run
	// time. It is not armed on the endpoints: an armed receive naps between
	// probes (see fig6), and this workload measures the wire, so its
	// endpoints park on the substrate.
	wireDeadline = 10 * time.Second
)

// wireBases are the verified sessions and their wire tables.
type wireBases struct {
	stream, streamOpt, blocks *session.Session
	streamTab, blocksTab      *wire.Table
}

func buildWireBases(tr *tracer) (wireBases, error) {
	var b wireBases
	var err error
	if b.stream, err = topDown(protocols.Streaming()); err != nil {
		return b, err
	}
	if b.streamOpt, err = topDown(protocols.OptimisedStreaming()); err != nil {
		return b, err
	}
	t0 := tr.now()
	p, err := scribble.Parse(blocksScribble)
	tr.leaf(lParse, 0, -1, t0)
	if err != nil {
		return b, err
	}
	if b.blocks, err = topDown(protocols.Entry{Name: p.Name, Global: p.Global}); err != nil {
		return b, err
	}
	if b.streamTab, err = wire.TableFromGlobal("Streaming", protocols.Streaming().Global); err != nil {
		return b, err
	}
	if b.blocksTab, err = wire.TableFromGlobal(p.Name, p.Global); err != nil {
		return b, err
	}
	return b, nil
}

// blockInputs are the seeded blocks and the checksums computed before any
// block is sent.
type blockInputs struct {
	blocks [][]complex128
	sums   []complex128
}

func makeBlockInputs(cfg *config) blockInputs {
	in := blockInputs{blocks: make([][]complex128, wireBlocks), sums: make([]complex128, wireBlocks)}
	for i := range in.blocks {
		b := make([]complex128, wireBlockLen)
		for k := range b {
			b[k] = complex(2*cfg.rng.Float64()-1, 2*cfg.rng.Float64()-1)
		}
		in.blocks[i] = b
		in.sums[i] = blockChecksum(b)
	}
	return in
}

// blockChecksum weights every sample by its position, so a reordered,
// truncated or altered block changes it.
func blockChecksum(b []complex128) complex128 {
	var s complex128
	for i, v := range b {
		s += complex(float64(i+1), 0) * v
	}
	return s
}

type blockSource struct {
	in   blockInputs
	sent int
}

func (s *blockSource) choose(options []fsm.Transition) int {
	if s.sent < len(s.in.blocks) {
		return labelIndex(options, "block")
	}
	return labelIndex(options, "done")
}

func (s *blockSource) payload(act fsm.Action) any {
	if act.Label != "block" {
		return nil
	}
	b := s.in.blocks[s.sent]
	s.sent++
	return b
}

func (s *blockSource) received(fsm.Action, any) error { return nil }

type blockSink struct {
	in  blockInputs
	got int
}

func (s *blockSink) choose([]fsm.Transition) int { return 0 }
func (s *blockSink) payload(fsm.Action) any      { return nil }
func (s *blockSink) received(act fsm.Action, v any) error {
	if act.Label != "block" {
		return nil
	}
	if err := checkBlock(s.in, s.got, v); err != nil {
		return err
	}
	s.got++
	return nil
}

// checkBlock: block i arrives with the checksum computed before sending.
func checkBlock(in blockInputs, i int, v any) error {
	b, ok := v.([]complex128)
	if !ok || i >= len(in.sums) || len(b) != wireBlockLen || blockChecksum(b) != in.sums[i] {
		return checkFail("blocks: block %d arrived with a checksum other than the one computed before sending", i)
	}
	return nil
}

// fabricPair is one fabric per role, listening on abstract unix sockets.
type fabricPair struct {
	roles [2]types.Role
	fabs  [2]*netchan.Fabric
	insts [2]*session.Session
}

var wireSockets int

// newFabricPair builds both fabrics, has each listen, points them at each
// other and builds one session instance per role on its fabric's routes.
func newFabricPair(base *session.Session, tab *wire.Table) (*fabricPair, error) {
	roles := base.Roles()
	if len(roles) != 2 {
		return nil, fmt.Errorf("wire-stream: %d roles, want 2", len(roles))
	}
	fp := &fabricPair{roles: [2]types.Role{roles[0], roles[1]}}
	var addrs [2]string
	for i, r := range roles {
		fp.fabs[i] = netchan.NewFabric(r, tab, netchan.Options{})
		wireSockets++
		a, err := fp.fabs[i].Listen("unix", fmt.Sprintf("@perfbench-%d-%d", os.Getpid(), wireSockets))
		if err != nil {
			fp.close()
			return nil, err
		}
		addrs[i] = a
	}
	for i := range roles {
		fp.fabs[i].SetPeer(roles[1-i], addrs[1-i])
		fab := fp.fabs[i]
		fp.insts[i] = base.Fork().Rewire(func(rs ...types.Role) *session.Network {
			return session.NewCustomNetwork(fab.RouteMaker(rs), rs...)
		})
	}
	return fp, nil
}

func (fp *fabricPair) close() {
	for _, f := range fp.fabs {
		if f != nil {
			f.Close()
		}
	}
}

// run drives each role on its own instance and returns the messages
// received across both roles.
func (fp *fabricPair) run(sts map[types.Role]strategy, recs []*rec, sess uint32, parent int32) (int, error) {
	var wg sync.WaitGroup
	var errs [2]error
	var recvs [2]int
	for i, inst := range fp.insts {
		role := fp.roles[i]
		m := inst.FSM(role)
		st, r := sts[role], recs[i]
		wg.Add(1)
		go func(i int, inst *session.Session) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), wireDeadline)
			defer cancel()
			errs[i] = inst.RunContext(ctx, map[types.Role]func(*session.Endpoint) error{
				role: func(ep *session.Endpoint) error {
					n, err := drive(ep, m, st, 0, r, sess, parent)
					recvs[i] = n
					return err
				},
			})
			if errs[i] != nil {
				// Unblock the peer: its routes end at this role's fabric.
				fp.fabs[i].Close()
			}
		}(i, inst)
	}
	wg.Wait()
	for _, r := range recs[:2] {
		r.merge()
	}
	for _, err := range errs {
		if err != nil {
			return recvs[0] + recvs[1], err
		}
	}
	return recvs[0] + recvs[1], nil
}

// wireKind is one session kind of a round.
type wireKind struct {
	name string
	base *session.Session
	tab  *wire.Table
	// strategies returns fresh strategies and the post-session check.
	strategies func(rtt *[]float64) (map[types.Role]strategy, func() error)
}

func wireKinds(b wireBases, in blockInputs) []wireKind {
	stream := func(rtt *[]float64) (map[types.Role]strategy, func() error) {
		sink := &streamSink{rtt: rtt}
		return map[types.Role]strategy{"s": &streamSource{n: wireStreamN}, "t": sink},
			func() error { return checkStreamCount(sink.got, wireStreamN) }
	}
	return []wireKind{
		{"streaming", b.stream, b.streamTab, stream},
		{"streaming-amr", b.streamOpt, b.streamTab, func(*[]float64) (map[types.Role]strategy, func() error) {
			return stream(nil)
		}},
		{"blocks", b.blocks, b.blocksTab, func(*[]float64) (map[types.Role]strategy, func() error) {
			sink := &blockSink{in: in}
			return map[types.Role]strategy{"p": &blockSource{in: in}, "c": sink}, func() error {
				if sink.got != wireBlocks {
					return checkFail("blocks: sink received %d blocks, want %d", sink.got, wireBlocks)
				}
				return nil
			}
		}},
	}
}

// timeCodec encodes and decodes one session's worth of the kind's own
// messages directly through the wire table, for the traced run.
func timeCodec(tr *tracer, k wireKind, in blockInputs, sess uint32) error {
	var buf []byte
	codec := func(label types.Label, v any) error {
		t0 := tr.now()
		b, err := k.tab.AppendData(buf[:0], label, v)
		tr.leaf(lEncode, sess, -1, t0)
		if err != nil {
			return err
		}
		buf = b
		t0 = tr.now()
		_, _, err = k.tab.Parse(buf)
		tr.leaf(lDecode, sess, -1, t0)
		return err
	}
	if k.name == "blocks" {
		for _, b := range in.blocks {
			if err := codec("block", b); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < wireStreamN; i++ {
		if err := codec("value", int32(i)); err != nil {
			return err
		}
	}
	return nil
}

func runWireStream(cfg *config) (*outcome, error) {
	// One P: both roles, their fabrics' reader goroutines and the
	// netpoller share one vCPU, so a handoff never waits for the host to
	// wake an idle vCPU, a wait that moved with the host's load. A
	// session's CPU time is then its wall time on an otherwise idle box.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	type setup struct {
		bases wireBases
		in    blockInputs
	}
	su, setupS, err := repeatSetup(func() (setup, error) {
		cfg.rng.Seed(cfg.seed)
		in := makeBlockInputs(cfg)
		b, err := buildWireBases(cfg.tr)
		if err != nil {
			return setup{}, err
		}
		fp, err := newFabricPair(b.stream, b.streamTab)
		if err != nil {
			return setup{}, err
		}
		fp.close()
		return setup{b, in}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	kinds := wireKinds(su.bases, su.in)
	recs := []*rec{cfg.tr.newRec(), cfg.tr.newRec()}

	out := &outcome{}
	// Each plain Streaming session contributes its own round-trip p50, p90
	// and p99 (1000 samples each); the run reports their medians, so a
	// session that a burst of CPU taken by other tenants slowed does not
	// move them. The tail is the p90: the p99 of a session is the few
	// round trips the host delayed, and it moved by half between runs, so
	// it is reported with the per-layer metrics instead.
	var rtt, rttP50, rttP90, rttP99 []float64
	// times[k] and msgsOf[k] are kind k's session CPU times in s and the
	// messages one of its sessions delivers; throughput comes from each
	// kind's median session, as in fig6. With one P a session's CPU time
	// is its wall time less the time the hypervisor gave other guests.
	times := make([][]float64, len(kinds))
	msgsOf := make([]int, len(kinds))
	msgs := 0
	var sess uint32
	before := readProc()
	deadline := time.Now().Add(cfg.run)
	// Whole rounds only: each kind runs once per round.
	for time.Now().Before(deadline) {
		for ki, k := range kinds {
			sess++
			out.attempted++
			t0 := cfg.tr.now()
			fp, err := newFabricPair(k.base, k.tab)
			cfg.tr.leaf(lNetSetup, sess, -1, t0)
			if err != nil {
				return nil, fmt.Errorf("fabrics for %s: %w", k.name, err)
			}
			rtt = rtt[:0]
			sts, check := k.strategies(&rtt)
			ps := cfg.tr.now()
			parent := cfg.tr.open(lSession, sess, -1)
			start := cpuTime()
			n, err := fp.run(sts, recs, sess, parent)
			d := cpuTime() - start
			cfg.tr.close(parent, lSession, ps)
			fp.close()
			if err == nil {
				err = check()
			}
			c, failed := classify(err)
			if c != nil {
				out.checkErrs = append(out.checkErrs, fmt.Errorf("%s: %w", k.name, c))
			}
			if failed != nil {
				out.failed++
				fmt.Fprintf(os.Stderr, "perfbench: wire-stream: %s: %v\n", k.name, failed)
				continue
			}
			times[ki] = append(times[ki], d.Seconds())
			msgsOf[ki] = n
			msgs += n
			if len(rtt) > 0 {
				rttP99 = append(rttP99, percentile(rtt, 0.99))
				rttP90 = append(rttP90, percentile(rtt, 0.9))
				rttP50 = append(rttP50, median(rtt))
			}
			if cfg.tr != nil {
				if err := timeCodec(cfg.tr, k, su.in, sess); err != nil {
					return nil, fmt.Errorf("codec on %s messages: %w", k.name, err)
				}
			}
		}
	}
	pd := before.to(readProc())
	var roundSecs float64
	roundMsgs := 0
	for k, ts := range times {
		roundSecs += median(ts)
		roundMsgs += msgsOf[k]
	}
	m := float64(msgs)
	out.e2e = e2eMetrics{
		setupS:      setupS,
		throughput:  float64(roundMsgs) / roundSecs,
		latencyP50:  median(rttP50),
		latencyTail: median(rttP90),
	}
	out.layers = layerMetrics{
		"wire.rtt_p99_us":       median(rttP99),
		"proc.cpu_us_per_msg":   pd.cpu.Seconds() * 1e6 / m,
		"proc.syscalls_per_msg": float64(pd.syscalls) / m,
		"proc.ctxsw_per_msg":    float64(pd.ctxsw) / m,
	}
	return out, nil
}
