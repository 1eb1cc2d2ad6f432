package main

import (
	"bytes"
	"fmt"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/kmc"
	"repro/internal/optimise"
	"repro/internal/project"
	"repro/internal/protocols"
	"repro/internal/protofuzz"
	"repro/internal/scribble"
	"repro/internal/types"
)

// The toolchain workload takes every registry protocol from Scribble text to
// generated Go on one goroutine: parse, project, AMR optimisation,
// subtyping certification against the projection, k-MC of the executed
// system, and codegen. No runtime layer runs.

// deepSizes are the protofuzz.DeepGlobal chain lengths in the corpus: long
// straight-line protocols that stress parse, project and codegen with no
// recursion for k-MC to explore.
var deepSizes = []int{8, 16, 32}

// paperKMC is Table 1's k-MC column as the paper prints it: every row is
// k-MC at its bound except Hospital, whose optimisation needs unbounded
// anticipation.
var paperKMC = map[string]bool{
	"Two Adder": true, "Three Adder": true, "Streaming": true,
	"Optimised Streaming": true, "Ring": true, "Optimised Ring": true,
	"Ring With Choice": true, "Optimised Ring With Choice": true,
	"Double Buffering": true, "Optimised Double Buffering": true,
	"Alternating Bit": true, "Elevator": true, "FFT": true,
	"Optimised FFT": true, "Authentication": true, "Client-Server Log": true,
	"Hospital": false,
}

// handAMRLookahead names the protocols whose hand-written AMR endpoints the
// optimiser must reproduce or beat.
var handAMRLookahead = map[string]bool{
	"Optimised Streaming": true, "Optimised Double Buffering": true,
	"Optimised Ring": true, "Elevator": true,
}

// toolInput is one protocol of the corpus as the toolchain receives it.
type toolInput struct {
	name  string
	ident string // Scribble protocol name and Go package name
	text  string // Scribble source; empty for bottom-up entries
	// hand holds hand-written endpoints that replace projections in the
	// executed system; for bottom-up entries it is the whole system.
	hand     map[types.Role]types.Local
	bottomUp bool
	kmcBound int
	wantKMC  bool
}

// toolOutput is what one pass produced for one protocol, kept for the
// checks that run outside the timed region.
type toolOutput struct {
	formatted string // Scribble text of the parsed protocol
	kmcOK     bool
	configs   int
	src       []byte
	// autoAhead and handAhead are each role's certified lookahead for the
	// optimiser's best candidate and for the hand-written endpoint.
	autoAhead, handAhead  map[types.Role]int
	considered, certified int
	certFailed            []types.Role
}

func identOf(name string) string {
	var b strings.Builder
	for _, r := range name {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// buildCorpus renders every registry protocol and the DeepGlobal chains as
// Scribble text. The corpus has no seeded part: its protocols are the
// registry's.
func buildCorpus() ([]toolInput, error) {
	var in []toolInput
	entries := append(protocols.Registry(), protocols.ExtraRegistry()...)
	for _, e := range entries {
		ti := toolInput{name: e.Name, ident: identOf(e.Name), kmcBound: e.KmcBound, wantKMC: true}
		if want, ok := paperKMC[e.Name]; ok {
			ti.wantKMC = want
		}
		if e.Global == nil {
			ti.bottomUp = true
			ti.hand = e.System()
		} else {
			text, err := scribble.FormatGlobal(ti.ident, e.Global)
			if err != nil {
				return nil, fmt.Errorf("rendering %s: %w", e.Name, err)
			}
			ti.text = text
			ti.hand = e.Optimised
		}
		in = append(in, ti)
	}
	for _, n := range deepSizes {
		name := fmt.Sprintf("Deep%d", n)
		text, err := scribble.FormatGlobal(name, protofuzz.DeepGlobal(n))
		if err != nil {
			return nil, fmt.Errorf("rendering %s: %w", name, err)
		}
		in = append(in, toolInput{name: name, ident: name, text: text, kmcBound: 1, wantKMC: true})
	}
	return in, nil
}

// toolStats accumulates the counters the traced run reports.
type toolStats struct {
	kmcNs, kmcAlloc    int64
	configs            int
	considered, certOK int
	codegenBytes       int
	passes             int
}

var heapAllocBytes = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocated() int64 {
	metrics.Read(heapAllocBytes)
	return int64(heapAllocBytes[0].Value.Uint64())
}

// pipeline takes one protocol from text to Go. Spans bracket each layer's
// calls for the protocol; the caller times the whole.
func pipeline(cfg *config, in toolInput, sess uint32, st *toolStats) (toolOutput, error) {
	tr := cfg.tr
	out := toolOutput{autoAhead: map[types.Role]int{}, handAhead: map[types.Role]int{}}
	ps := tr.now()
	parent := tr.open(lProtocol, sess, -1)
	defer tr.close(parent, lProtocol, ps)

	projected := map[types.Role]types.Local{}
	var roles []types.Role
	var proto *scribble.Protocol
	if in.bottomUp {
		for r := range in.hand {
			roles = append(roles, r)
		}
	} else {
		t0 := tr.now()
		p, err := scribble.Parse(in.text)
		tr.leaf(lParse, sess, parent, t0)
		if err != nil {
			return out, fmt.Errorf("parse: %w", err)
		}
		proto = p

		t0 = tr.now()
		locals, err := project.ProjectAll(p.Global)
		tr.leaf(lProject, sess, parent, t0)
		if err != nil {
			return out, fmt.Errorf("project: %w", err)
		}
		projected = locals
		roles = p.Roles
	}

	// AMR optimisation of every projection.
	executed := map[types.Role]types.Local{}
	best := map[types.Role]types.Local{}
	if !in.bottomUp {
		t0 := tr.now()
		for _, r := range roles {
			res, err := optimise.Optimise(r, projected[r], optimise.Options{})
			if err != nil {
				return out, fmt.Errorf("optimise %s: %w", r, err)
			}
			out.considered += res.Considered
			out.certified += len(res.Certified) - 1 // the original is always certified
			best[r] = res.Best.Type
			out.autoAhead[r] = res.Best.Lookahead
			executed[r] = projected[r]
		}
		tr.leaf(lOptimise, sess, parent, t0)

		// Certification: the optimiser's best and every hand-written
		// endpoint must be asynchronous subtypes of the projection.
		t0 = tr.now()
		for _, r := range roles {
			res, err := core.CheckTypes(r, best[r], projected[r], core.Options{})
			if err != nil || !res.OK {
				out.certFailed = append(out.certFailed, r)
			}
		}
		for r, l := range in.hand {
			res, err := core.CheckTypes(r, l, projected[r], core.Options{})
			if err != nil || !res.OK {
				out.certFailed = append(out.certFailed, r)
				continue
			}
			out.handAhead[r] = res.Stats.MaxSendAhead
			executed[r] = l
		}
		tr.leaf(lCertify, sess, parent, t0)
	} else {
		for r, l := range in.hand {
			executed[r] = l
			best[r] = l
		}
	}

	// k-MC of the executed system.
	machines := map[types.Role]*fsm.FSM{}
	for r, l := range executed {
		m, err := fsm.FromLocal(r, l)
		if err != nil {
			return out, fmt.Errorf("machine %s: %w", r, err)
		}
		machines[r] = m
	}
	t0 := tr.now()
	k0 := time.Now()
	a0 := heapAllocated()
	sys, err := kmc.NewSystem(protocols.Machines(machines)...)
	if err != nil {
		return out, fmt.Errorf("k-MC system: %w", err)
	}
	_, res := kmc.CheckUpTo(sys, in.kmcBound)
	st.kmcAlloc += heapAllocated() - a0
	st.kmcNs += int64(time.Since(k0))
	tr.leaf(lKMC, sess, parent, t0)
	out.kmcOK, out.configs = res.OK, res.Configs

	// Codegen from the optimiser's machines.
	gen := map[types.Role]*fsm.FSM{}
	for r, l := range best {
		m, err := fsm.FromLocal(r, l)
		if err != nil {
			return out, fmt.Errorf("optimised machine %s: %w", r, err)
		}
		gen[r] = m
	}
	t0 = tr.now()
	src, err := codegen.Generate(in.name, gen, codegen.Options{Package: strings.ToLower(in.ident), Mode: codegen.ModeAuto})
	tr.leaf(lCodegen, sess, parent, t0)
	if err != nil {
		return out, fmt.Errorf("codegen: %w", err)
	}
	out.src = src
	if proto != nil {
		out.formatted, err = scribble.Format(proto)
		if err != nil {
			return out, fmt.Errorf("format: %w", err)
		}
	}
	return out, nil
}

// checkToolOutput runs the toolchain's correctness checks on one
// protocol's output.
func checkToolOutput(in toolInput, out toolOutput) []error {
	var errs []error
	if out.kmcOK != in.wantKMC {
		errs = append(errs, fmt.Errorf("%s: k-MC verdict %v, Table 1 says %v", in.name, out.kmcOK, in.wantKMC))
	}
	if len(out.certFailed) > 0 {
		errs = append(errs, fmt.Errorf("%s: certification against the projection failed for %v", in.name, out.certFailed))
	}
	if handAMRLookahead[in.name] {
		if err := checkLookahead(in.name, out.autoAhead, out.handAhead); err != nil {
			errs = append(errs, err)
		}
	}
	if err := checkGoSource(in.name, out.src); err != nil {
		errs = append(errs, err)
	}
	if !in.bottomUp {
		if err := checkScribbleFixpoint(in.name, in.text, out.formatted); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// checkLookahead: for every hand-optimised role, the optimiser's certified
// lookahead is at least the hand-written endpoint's.
func checkLookahead(name string, auto, hand map[types.Role]int) error {
	if len(hand) == 0 {
		return fmt.Errorf("%s: no hand-written AMR endpoint was certified", name)
	}
	for r, h := range hand {
		if auto[r] < h {
			return fmt.Errorf("%s: optimiser lookahead %d for %s is below the hand-written %d", name, auto[r], r, h)
		}
	}
	return nil
}

// checkGoSource: generated source parses as Go and is gofmt-clean.
func checkGoSource(name string, src []byte) error {
	if _, err := parser.ParseFile(token.NewFileSet(), "gen.go", src, parser.AllErrors); err != nil {
		return fmt.Errorf("%s: generated source does not parse: %w", name, err)
	}
	formatted, err := format.Source(src)
	if err != nil {
		return fmt.Errorf("%s: generated source does not format: %w", name, err)
	}
	if !bytes.Equal(formatted, src) {
		return fmt.Errorf("%s: generated source changes under go/format", name)
	}
	return nil
}

// checkScribbleFixpoint: the text the toolchain parsed formats back to
// itself (format→parse→format is a fixpoint).
func checkScribbleFixpoint(name, text, formatted string) error {
	if text != formatted {
		return fmt.Errorf("%s: Scribble text is not a format→parse→format fixpoint", name)
	}
	return nil
}

func runToolchain(cfg *config) (*outcome, error) {
	corpus, setupS, err := repeatSetup(buildCorpus, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	var st toolStats
	// times[i] holds protocol i's CPU time in µs (user and system, every
	// thread, the garbage collector's included), one per pass. Unlike wall
	// time it leaves out the time the hypervisor gave other guests, which
	// moved wall-clock passes by a quarter between runs. Each protocol is
	// summarised by its median over the passes.
	times := make([][]float64, len(corpus))
	deadline := time.Now().Add(cfg.run)
	// Whole passes only: a pass started before the deadline runs to its end.
	for pass := 0; time.Now().Before(deadline); pass++ {
		for i, in := range corpus {
			sess := uint32(pass*len(corpus) + i)
			out.attempted++
			// Each protocol starts from a collected heap, as a fresh
			// toolchain invocation would; otherwise the GC debt of the
			// previous protocol (gigabytes after Optimised FFT's k-MC)
			// lands on whichever protocol follows it.
			runtime.GC()
			start := cpuTime()
			res, err := pipeline(cfg, in, sess, &st)
			d := cpuTime() - start
			if err != nil {
				out.failed++
				fmt.Fprintf(os.Stderr, "perfbench: toolchain: %s: %v\n", in.name, err)
				continue
			}
			times[i] = append(times[i], float64(d)/1e3)
			st.configs += res.configs
			st.considered += res.considered
			st.certOK += res.certified
			st.codegenBytes += len(res.src)
			out.checkErrs = append(out.checkErrs, checkToolOutput(in, res)...)
		}
		st.passes++
	}
	var perProtocol []float64
	var passUs float64
	for _, ts := range times {
		if len(ts) > 0 {
			m := median(ts)
			perProtocol = append(perProtocol, m)
			passUs += m
		}
	}
	if len(perProtocol) == 0 {
		return nil, fmt.Errorf("no protocol of the corpus ran")
	}
	// The corpus has fewer than forty protocols, too few for a percentile
	// above the median; the tail is its slowest protocol.
	out.e2e = e2eMetrics{
		setupS:      setupS,
		throughput:  float64(len(perProtocol)) / (passUs / 1e6),
		latencyP50:  median(append([]float64(nil), perProtocol...)),
		latencyTail: slices.Max(perProtocol),
	}
	passes := float64(st.passes)
	out.layers = layerMetrics{
		"optimise.candidates":      float64(st.considered) / passes,
		"optimise.certified_ratio": float64(st.certOK) / float64(st.considered),
		"codegen.bytes":            float64(st.codegenBytes) / passes,
		"kmc.configs":              float64(st.configs) / passes,
		"kmc.alloc_kb":             float64(st.kmcAlloc) / 1024 / passes,
	}
	if st.configs > 0 {
		out.layers["kmc.ns_per_config"] = float64(st.kmcNs) / float64(st.configs)
	}
	return out, nil
}
