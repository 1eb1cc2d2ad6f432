package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// layer names one boundary the traced run records spans at.
type layer uint8

const (
	lProtocol layer = iota // one protocol through the toolchain (parent)
	lSession               // one session instance (parent)
	lParse                 // scribble.Parse
	lProject               // project.ProjectAll + fsm.FromLocal
	lOptimise              // optimise.Optimise, every role
	lCertify               // core.CheckTypes, every certified role
	lKMC                   // kmc.NewSystem + kmc.CheckUpTo
	lCodegen               // codegen.Generate
	lSend                  // session.Endpoint.Send
	lRecv                  // session.Endpoint.Receive
	lGenrt                 // one generated-API (genrt) transition
	lFFTStage              // fft.StageOutput
	lAdmit                 // sched.Scheduler.GoSessionPooled
	lNetSetup              // two netchan fabrics listening, routes built
	lEncode                // wire.Table.AppendData
	lDecode                // wire.Table.Parse
	nLayers
)

var layerNames = [nLayers]string{
	"protocol", "session", "scribble.parse", "project.project", "optimise.search",
	"core.certify", "kmc.check", "codegen.generate", "session.send",
	"session.recv", "genrt.op", "fft.stage", "sched.admit", "netchan.setup",
	"wire.encode", "wire.decode",
}

// span is one recorded layer call. Parent is the index of the enclosing
// span in the run's span list (-1 for none); times are nanoseconds since
// the run began.
type span struct {
	start, end int64
	parent     int32
	sess       uint32
	layer      layer
}

// maxSpans caps the spans kept for writing out; past it, calls are still
// counted and timed in the per-layer aggregates, which cover every call.
const maxSpans = 1 << 18

// histBuckets is the size of the log-scale duration histogram: bucket i
// holds durations d with floor(20·ln d) == i, about 5% wide.
const histBuckets = 560

// agg accumulates every call of one layer.
type agg struct {
	count int64
	sum   int64 // ns
	hist  [histBuckets]int64
}

func (a *agg) add(d int64) {
	a.count++
	a.sum += d
	i := 0
	if d > 1 {
		i = int(20 * math.Log(float64(d)))
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	a.hist[i]++
}

// quantile returns the q-quantile of the recorded durations in ns, as the
// lower edge of its histogram bucket.
func (a *agg) quantile(q float64) float64 {
	rank := int64(math.Ceil(q * float64(a.count)))
	var seen int64
	for i, n := range a.hist {
		seen += n
		if seen >= rank && n > 0 {
			return math.Exp(float64(i) / 20)
		}
	}
	return 0
}

// tracer owns the run's spans and aggregates. Parent spans are opened and
// closed by the single coordinating goroutine; leaf spans are recorded in a
// per-goroutine rec and merged after the goroutine is done.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
	aggs  [nLayers]agg
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<12)}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// open starts a parent span and returns its index (-1 when untraced).
func (t *tracer) open(l layer, sess uint32, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return -1
	}
	t.spans = append(t.spans, span{start: t.now(), end: -1, parent: parent, sess: sess, layer: l})
	return int32(len(t.spans) - 1)
}

// close ends a parent span opened at start.
func (t *tracer) close(idx int32, l layer, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.aggs[l].add(end - start)
	if idx >= 0 {
		t.spans[idx].end = end
	}
}

// leaf records a leaf span directly; for the coordinating goroutine.
func (t *tracer) leaf(l layer, sess uint32, parent int32, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.aggs[l].add(end - start)
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{start: start, end: end, parent: parent, sess: sess, layer: l})
	}
}

// rec buffers one goroutine's leaf spans; a nil *rec records nothing.
type rec struct {
	t     *tracer
	spans []span
	aggs  [nLayers]agg
}

// newRec returns a recorder for one goroutine, or nil when untraced.
func (t *tracer) newRec() *rec {
	if t == nil {
		return nil
	}
	return &rec{t: t, spans: make([]span, 0, 1<<10)}
}

func (r *rec) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.t.base))
}

func (r *rec) leaf(l layer, sess uint32, parent int32, start int64) {
	if r == nil {
		return
	}
	end := int64(time.Since(r.t.base))
	r.aggs[l].add(end - start)
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, span{start: start, end: end, parent: parent, sess: sess, layer: l})
	}
}

// merge folds the recorder into its tracer and empties it for reuse. The
// caller guarantees the recording goroutine has finished.
func (r *rec) merge() {
	if r == nil {
		return
	}
	t := r.t
	t.mu.Lock()
	defer t.mu.Unlock()
	for l := range r.aggs {
		a, b := &t.aggs[l], &r.aggs[l]
		if b.count == 0 {
			continue
		}
		a.count += b.count
		a.sum += b.sum
		for i, n := range b.hist {
			a.hist[i] += n
		}
		*b = agg{}
	}
	room := maxSpans - len(t.spans)
	if room > len(r.spans) {
		room = len(r.spans)
	}
	t.spans = append(t.spans, r.spans[:room]...)
	r.spans = r.spans[:0]
}

// write stores the kept spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"session":%d}`+"\n",
			i, layerNames[s.layer], s.start, s.end, s.parent, s.sess)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// meanNs is the mean duration of a layer's calls in ns (0 when none ran).
func (t *tracer) meanNs(l layer) float64 {
	a := &t.aggs[l]
	if a.count == 0 {
		return 0
	}
	return float64(a.sum) / float64(a.count)
}

// layerMetrics are per-layer values a workload computes itself (counts,
// ratios and process counters); span timings come from the tracer.
type layerMetrics map[string]float64

// perLayer lists every per-layer metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"scribble.parse_us", "us"},
	{"project.project_us", "us"},
	{"core.certify_us", "us"},
	{"optimise.search_ms", "ms"},
	{"optimise.candidates", "count"},
	{"optimise.certified_ratio", "ratio"},
	{"codegen.generate_ms", "ms"},
	{"codegen.bytes", "bytes"},
	{"kmc.check_ms", "ms"},
	{"kmc.configs", "count"},
	{"kmc.ns_per_config", "ns"},
	{"kmc.alloc_kb", "KB"},
	{"session.send_ns", "ns"},
	{"session.recv_ns", "ns"},
	{"session.recv_p99_us", "us"},
	{"session.armed_napped_share", "ratio"},
	{"genrt.op_ns", "ns"},
	{"fft.stage_us", "us"},
	{"sched.admit_us", "us"},
	{"sched.steals_per_1k", "count"},
	{"sched.session_p99_us", "us"},
	{"netchan.setup_ms", "ms"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.rtt_p99_us", "us"},
	{"proc.cpu_util", "cores"},
	{"proc.cpu_us_per_msg", "us"},
	{"proc.ctxsw_per_msg", "count"},
	{"proc.syscalls_per_msg", "count"},
	{"proc.allocs_per_msg", "count"},
	{"proc.allocs_per_session", "count"},
	{"proc.gc_per_1k_sessions", "count"},
	{"proc.peak_rss_mb", "MB"},
}

// reduce turns the aggregates plus the workload's own values into the
// per-layer metric set. A layer the workload never calls reads 0.
func (t *tracer) reduce(own layerMetrics) map[string]metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := layerMetrics{
		"scribble.parse_us":   t.meanNs(lParse) / 1e3,
		"project.project_us":  t.meanNs(lProject) / 1e3,
		"core.certify_us":     t.meanNs(lCertify) / 1e3,
		"optimise.search_ms":  t.meanNs(lOptimise) / 1e6,
		"codegen.generate_ms": t.meanNs(lCodegen) / 1e6,
		"kmc.check_ms":        t.meanNs(lKMC) / 1e6,
		"session.send_ns":     t.meanNs(lSend),
		"session.recv_ns":     t.meanNs(lRecv),
		"session.recv_p99_us": t.aggs[lRecv].quantile(0.99) / 1e3,
		"genrt.op_ns":         t.meanNs(lGenrt),
		"fft.stage_us":        t.meanNs(lFFTStage) / 1e3,
		"sched.admit_us":      t.meanNs(lAdmit) / 1e3,
		"netchan.setup_ms":    t.meanNs(lNetSetup) / 1e6,
		"wire.encode_ns":      t.meanNs(lEncode),
		"wire.decode_ns":      t.meanNs(lDecode),
	}
	for k, x := range own {
		v[k] = x
	}
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

// procSnap is a reading of this process's own counters: getrusage, the
// runtime's metrics and /proc/self/io.
type procSnap struct {
	wall         time.Time
	cpu          time.Duration
	ctxsw        int64
	allocs, gcs  uint64
	syscalls     int64
	peakRSSBytes int64
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readProc() procSnap {
	s := procSnap{wall: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.ctxsw = ru.Nvcsw + ru.Nivcsw
		s.peakRSSBytes = ru.Maxrss * 1024
	}
	metrics.Read(procSamples)
	s.allocs = procSamples[0].Value.Uint64()
	s.gcs = procSamples[1].Value.Uint64()
	if b, err := os.ReadFile("/proc/self/io"); err == nil {
		for _, line := range bytes.Split(b, []byte("\n")) {
			k, val, ok := bytes.Cut(line, []byte(": "))
			if ok && (string(k) == "syscr" || string(k) == "syscw") {
				n, _ := strconv.ParseInt(string(val), 10, 64)
				s.syscalls += n
			}
		}
	}
	return s
}

// procDelta is the counter difference over a measured interval.
type procDelta struct {
	wall, cpu   time.Duration
	ctxsw       int64
	allocs, gcs uint64
	syscalls    int64
}

func (a procSnap) to(b procSnap) procDelta {
	return procDelta{
		wall:     b.wall.Sub(a.wall),
		cpu:      b.cpu - a.cpu,
		ctxsw:    b.ctxsw - a.ctxsw,
		allocs:   b.allocs - a.allocs,
		gcs:      b.gcs - a.gcs,
		syscalls: b.syscalls - a.syscalls,
	}
}

// cpuTime is this process's CPU time so far, user and system. With
// paravirtual time accounting the kernel leaves out time the hypervisor
// gave to other guests.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 { return float64(readProc().peakRSSBytes) / (1 << 20) }

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs; xs is reordered.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// setupRuns is how many times a run builds its set-up; setup_s is the
// median, so one slow build (a page-cache miss, a GC) does not move it.
const setupRuns = 41

// repeatSetup builds the workload's set-up setupRuns times, discards all
// but the last product, and returns it with the median build time in s.
func repeatSetup[T any](build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), nil
}
