package main

import (
	"math/rand"
	"testing"

	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/types"
)

// Each correctness check of the benchmark is fed a wrong output here and
// must reject it; where cheap, the right output must pass.

func wantCheckErr(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: check accepted a wrong output", what)
		return
	}
	if c, _ := classify(err); c == nil {
		t.Errorf("%s: %v is not reported as a failed check", what, err)
	}
}

func TestStreamingChecks(t *testing.T) {
	if err := checkStreamValue(3, int32(3)); err != nil {
		t.Errorf("value 3 in place 3 rejected: %v", err)
	}
	wantCheckErr(t, "value out of order", checkStreamValue(3, int32(4)))
	wantCheckErr(t, "value of the wrong type", checkStreamValue(3, 3))
	wantCheckErr(t, "missing values", checkStreamCount(9, 10))
	sink := &streamSink{}
	recv := fsm.Action{Dir: fsm.Recv, Peer: "s", Label: "value"}
	if err := sink.received(recv, int32(0)); err != nil {
		t.Fatalf("first value rejected: %v", err)
	}
	wantCheckErr(t, "repeated value", sink.received(recv, int32(0)))
}

func TestRingChecks(t *testing.T) {
	b := &ringRole{off: 1}
	recv := fsm.Action{Dir: fsm.Recv, Peer: "a", Label: "v"}
	if err := b.received(recv, 0); err != nil {
		t.Fatalf("hop 0 at b rejected: %v", err)
	}
	wantCheckErr(t, "skipped hop", b.received(recv, 6))
	wantCheckErr(t, "lost hop", checkRingHops(3*16-1, 16))
	if err := checkRingHops(3*16, 16); err != nil {
		t.Errorf("full ring rejected: %v", err)
	}
}

func TestDoubleBufferingSinkRejectsReorder(t *testing.T) {
	sink := &dbSink{vals: []int{5, 7}}
	wantCheckErr(t, "reordered value", sink.received(fsm.Action{Dir: fsm.Recv, Peer: "k", Label: "value"}, 7))
}

// dftColumns is the expected butterfly output: worker bitrev3(k) holds the
// k-th DFT output of every row.
func dftColumns(cols [][]complex128) [][]complex128 {
	out := make([][]complex128, 8)
	for j := range out {
		out[j] = make([]complex128, len(cols[0]))
	}
	row := make([]complex128, 8)
	for r := range cols[0] {
		for j := range row {
			row[j] = cols[j][r]
		}
		for k, v := range dft(row) {
			out[bitrev3(k)][r] = v
		}
	}
	return out
}

func TestFFTCheck(t *testing.T) {
	cfg := &config{rng: rand.New(rand.NewSource(7))}
	in := makeFig6Inputs(cfg)
	good := dftColumns(in.fftCols)
	if err := checkFFT(in.fftCols, good); err != nil {
		t.Fatalf("exact DFT rejected: %v", err)
	}
	bad := dftColumns(in.fftCols)
	bad[3][5] += 1e-6
	wantCheckErr(t, "perturbed sample", checkFFT(in.fftCols, bad))
	swapped := dftColumns(in.fftCols)
	swapped[1], swapped[4] = swapped[4], swapped[1]
	wantCheckErr(t, "natural instead of bit-reversed order", checkFFT(in.fftCols, swapped))
	wantCheckErr(t, "missing worker", checkFFT(in.fftCols, good[:7]))
}

func TestFFTWorkersMatchDFT(t *testing.T) {
	cfg := &config{rng: rand.New(rand.NewSource(3))}
	in := makeFig6Inputs(cfg)
	recs := make([]*rec, 8)
	out, err := genFFT(in.fftCols, recs, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFFT(in.fftCols, out); err != nil {
		t.Fatalf("generated FFT disagrees with the DFT: %v", err)
	}
}

func TestBlockCheck(t *testing.T) {
	cfg := &config{rng: rand.New(rand.NewSource(1))}
	in := makeBlockInputs(cfg)
	if err := checkBlock(in, 2, in.blocks[2]); err != nil {
		t.Fatalf("intact block rejected: %v", err)
	}
	altered := append([]complex128(nil), in.blocks[2]...)
	altered[0], altered[1] = altered[1], altered[0]
	wantCheckErr(t, "reordered samples", checkBlock(in, 2, altered))
	wantCheckErr(t, "block out of order", checkBlock(in, 3, in.blocks[2]))
	wantCheckErr(t, "truncated block", checkBlock(in, 2, in.blocks[2][:10]))
}

func TestSchedChecks(t *testing.T) {
	wantCheckErr(t, "lost session", checkSchedCounts(10, 9, 50, 0))
	wantCheckErr(t, "wrong payload", checkSchedCounts(10, 10, 50, 1))
	wantCheckErr(t, "nothing checked", checkSchedCounts(10, 10, 0, 0))
	if err := checkSchedCounts(10, 10, 50, 0); err != nil {
		t.Errorf("clean run rejected: %v", err)
	}

	st := newStamps(8)
	recv := func(peer types.Role, sort types.Sort) fsm.Action {
		return fsm.Action{Dir: fsm.Recv, Peer: peer, Label: "m", Sort: sort}
	}
	s := newStampStrategy(st, []types.Role{"a", "b"})
	s.Received(recv("a", types.I32), st.ints[0])
	s.Received(recv("b", types.Str), st.strs[0])
	s.Received(recv("a", protocols.FFTColumnSort), []complex128{1})
	if s.wrong != 0 {
		t.Fatalf("in-order stamps counted wrong: %d", s.wrong)
	}
	s.Received(recv("a", types.I32), st.ints[3]) // stamp 2 expected
	s.Received(recv("b", types.Str), "m1x")
	s.Received(recv("b", protocols.FFTColumnSort), []complex128{1, 0})
	if s.wrong != 3 {
		t.Errorf("wrong stamps counted %d, want 3", s.wrong)
	}
	s.ResetStrategy()
	if s.checked != 6 {
		t.Errorf("reset lost the receive count: %d", s.checked)
	}
}

func TestToolchainChecks(t *testing.T) {
	cfg := &config{}
	corpus, err := buildCorpus()
	if err != nil {
		t.Fatal(err)
	}
	var in toolInput
	for _, c := range corpus {
		if c.name == "Optimised Streaming" {
			in = c
		}
	}
	var st toolStats
	out, err := pipeline(cfg, in, 0, &st)
	if err != nil {
		t.Fatal(err)
	}
	if errs := checkToolOutput(in, out); len(errs) > 0 {
		t.Fatalf("correct pipeline output rejected: %v", errs)
	}

	wrongKMC := out
	wrongKMC.kmcOK = false
	if len(checkToolOutput(in, wrongKMC)) == 0 {
		t.Error("k-MC verdict that contradicts Table 1 accepted")
	}
	if checkLookahead("x", map[types.Role]int{"s": 0}, map[types.Role]int{"s": 1}) == nil {
		t.Error("optimiser lookahead below the hand-written one accepted")
	}
	if checkLookahead("x", nil, nil) == nil {
		t.Error("missing hand-written certificate accepted")
	}
	if checkGoSource("x", []byte("package x\nfunc f( {}\n")) == nil {
		t.Error("unparseable Go accepted")
	}
	if checkGoSource("x", []byte("package x\nfunc  f() {}\n")) == nil {
		t.Error("gofmt-unclean Go accepted")
	}
	if checkScribbleFixpoint("x", in.text, in.text+" ") == nil {
		t.Error("Scribble text that changes under format accepted")
	}
}
