// Command roundbench plays whole FedSZ federated-learning rounds in one
// process and reports what a deployment sees: per-update latency from the
// upload call to the server's ack, round time to the FedAvg barrier, raw
// model bytes folded per second, compression ratio on the wire and the
// Eqn-1 break-even bandwidth.
//
// Every round, nproc clients each upload one fresh seeded update over
// loopback to an flserve.Server that ingests through agg.Sharded; a client
// sends its next update only after its ack and the round's mean (a closed
// loop at the FedAvg barrier). Each mean is checked against the exact mean
// of the raw updates within the codec's error bound.
//
// Usage, from the repository root (run.sh builds and runs this command):
//
//	roundbench --workload round-alexnet --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload untraced for half the time and traced for the other half,
// then probes each layer's public calls, and prints the per-layer metrics.
// The last line of standard output is the JSON result. METRICS.md maps
// each per-layer metric to the end-to-end metrics it should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/flserve"
)

// minUpdates is the fewest updates an end-to-end run measures, so the p90
// latency has at least ten samples beyond it.
const minUpdates = 100

// setups is how many times a run sets the workload up; setup_s is the
// median.
const setups = 5

// watchdog ends a run that overruns its time budget.
const watchdog = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wlName := flag.String("workload", "round-alexnet", "workload to run")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	out := flag.String("out", ".bench_build", "directory for the span trace")
	flag.Parse()

	if err := run(*wlName, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "roundbench:", err)
		os.Exit(1)
	}
}

func run(wlName string, seed uint64, d time.Duration, traced bool, outDir string) error {
	wl, err := workloadByName(wlName)
	if err != nil {
		return err
	}
	if d <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintln(os.Stderr, "roundbench: run exceeded", watchdog)
		os.Exit(2)
	})
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	selfErr := selfTest()
	if selfErr != nil {
		fmt.Fprintln(os.Stderr, "roundbench: checker self-test:", selfErr)
	}
	res := result{Metrics: map[string]metric{}}
	var e *env
	if traced {
		e, err = runTraced(wl, seed, nproc, d, outDir, &res)
	} else {
		e, err = runEndToEnd(wl, seed, nproc, d, &res)
	}
	if e != nil {
		defer e.close()
	}
	if err != nil {
		return err
	}
	res.Correct = selfErr == nil && res.Failed == 0

	printHost(wl, seed, nproc, traced, e, &res)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// start sets the workload up once and counts its warm-up round.
func start(wl *workload, seed uint64, nproc int, traced bool, res *result) (*env, error) {
	e, err := newEnv(wl, seed, nproc, traced)
	if err != nil {
		return nil, err
	}
	res.Attempted += len(e.warmup.updates)
	res.Failed += e.warmup.failed()
	logFailures(&e.warmup)
	return e, nil
}

// setUp sets the workload up setups times, keeping the last instance, and
// returns it with the median set-up time in seconds.
func setUp(wl *workload, seed uint64, nproc int, res *result) (*env, float64, error) {
	var times []float64
	var e *env
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if e, err = start(wl, seed, nproc, false, res); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return e, quantile(times, 0.5), nil
}

func runEndToEnd(wl *workload, seed uint64, nproc int, d time.Duration, res *result) (*env, error) {
	e, setupS, err := setUp(wl, seed, nproc, res)
	if err != nil {
		return nil, err
	}
	p := e.run(d, minUpdates)
	tally(p, res)

	lat := latencies(p)
	var rounds []float64
	var raw, roundSum, cpu float64
	for _, o := range p.rounds {
		rounds = append(rounds, ms(o.end.Sub(o.start)))
		roundSum += o.end.Sub(o.start).Seconds()
		cpu += ms(o.cpu)
		for _, u := range o.updates {
			if u.err == nil {
				raw += float64(u.rawBytes)
			}
		}
	}
	acked := float64(len(lat))
	wireBytes := float64(p.snap1.WireBytes - p.snap0.WireBytes)
	p50 := quantile(lat, 0.5)
	m := map[string]float64{
		"setup_s":               setupS,
		"update_latency_p50_ms": p50,
		"update_latency_p90_ms": quantile(lat, 0.9),
		"round_p50_ms":          quantile(rounds, 0.5),
		"raw_mb_per_s":          share(raw/1e6, roundSum),
		"compression_ratio":     share(raw, wireBytes),
		"cpu_ms_per_update":     share(cpu, acked),
		"breakeven_mbps":        share(8*(raw-wireBytes)/1e6, acked*p50/1e3),
		"ok_frac":               1 - share(float64(res.Failed), float64(res.Attempted)),
		"peak_rss_mb":           peakRSSMB(),
	}
	fmt.Printf("measured %.1f s: %d updates in %d rounds, failed_frac %.6f\n",
		p.elapsed.Seconds(), len(lat), len(p.rounds), float64(res.Failed)/float64(res.Attempted))
	return e, report(m, endToEndUnits, res)
}

// runTraced measures the workload untraced for half of d, then traced for
// the other half, then probes the layers; it reports the per-layer
// metrics.
func runTraced(wl *workload, seed uint64, nproc int, d time.Duration, outDir string, res *result) (*env, error) {
	half := d / 2
	e, err := start(wl, seed, nproc, false, res)
	if err != nil {
		return nil, err
	}
	plain := e.run(half, 0)
	tally(plain, res)
	e.close()
	runtime.GC()

	if e, err = start(wl, seed, nproc, true, res); err != nil {
		return nil, err
	}
	p := e.run(half, 0)
	tally(p, res)

	var ups []updateTrace
	for _, o := range p.rounds {
		ups = append(ups, o.traces...)
	}
	if err := writeSpans(filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", wl.name, seed)), wl.name, p.rounds, ups); err != nil {
		return e, err
	}

	m := map[string]float64{
		"trace.overhead_frac": share(quantile(latencies(p), 0.5), quantile(latencies(plain), 0.5)) - 1,
	}
	updateLayers(ups, m)
	phaseLayers(p, m)
	// Encode stats: the timed client encodes, or the set-up encodes of the
	// pre-encoded workload, whose encode is off the measured path.
	var encStats []*core.Stats
	for _, u := range ups {
		if u.up.stats != nil {
			encStats = append(encStats, u.up.stats)
		}
	}
	if len(encStats) == 0 {
		encStats = e.encodeStats
	}
	encodeLayer(encStats, m)

	if err := e.probeLayers(m); err != nil {
		return e, fmt.Errorf("layer probe: %w", err)
	}
	return e, report(m, perLayerUnits, res)
}

// updateLayers reports the stage split and the ingest metrics of the
// traced updates.
func updateLayers(ups []updateTrace, m map[string]float64) {
	var lat, cli, del, tail, left float64
	var ingest, tailMS, decWork, readWait []float64
	for _, u := range ups {
		l, a, b, c, r := u.split()
		lat += l.Seconds()
		cli += a.Seconds()
		del += b.Seconds()
		tail += c.Seconds()
		left += r.Seconds()
		ingest = append(ingest, ms(u.srv.end.Sub(u.srv.start)))
		tailMS = append(tailMS, ms(u.srv.end.Sub(u.srv.last)))
		decWork = append(decWork, ms(u.srv.stats.DecodeWork))
		readWait = append(readWait, ms(u.srv.stats.ReadWait))
	}
	// Stage means per update; with the leftover they sum to the mean
	// traced latency.
	k := float64(len(ups))
	m["trace.latency_ms"] = share(lat*1e3, k)
	m["trace.client_ms"] = share(cli*1e3, k)
	m["trace.deliver_ms"] = share(del*1e3, k)
	m["trace.tail_ms"] = share(tail*1e3, k)
	m["trace.unattributed_frac"] = share(left, lat)
	m["trace.updates"] = k
	m["agg.ingest_ms"] = quantile(ingest, 0.5)
	m["agg.tail_ms"] = quantile(tailMS, 0.5)
	m["agg.decode_work_ms"] = quantile(decWork, 0.5)
	m["agg.read_wait_ms"] = quantile(readWait, 0.5)
}

// phaseLayers reports the round barrier, the server's counters and the
// memory metrics of a phase.
func phaseLayers(p *phase, m map[string]float64) {
	var meanMS, refMS []float64
	for _, o := range p.rounds {
		meanMS = append(meanMS, ms(o.meanEnd.Sub(o.meanStart)))
		if o.refSet > 0 {
			refMS = append(refMS, ms(o.refSet))
		}
	}
	m["agg.mean_ms"] = quantile(meanMS, 0.5)
	if len(refMS) > 0 {
		m["delta.ref_set_ms"] = quantile(refMS, 0.5)
	}

	s := flserve.Stats{
		ReadWait:   p.snap1.ReadWait - p.snap0.ReadWait,
		DecodeWork: p.snap1.DecodeWork - p.snap0.DecodeWork,
		Wall:       p.snap1.Wall - p.snap0.Wall,
	}
	m["flserve.overlap_ratio"] = s.OverlapRatio()
	m["flserve.rejected"] = float64(p.snap1.Rejected - p.snap0.Rejected)
	m["flserve.shed"] = float64(p.snap1.Shed - p.snap0.Shed)

	m["sched.byte_pool_hit_ratio"] = ratio(p.mem1.byteHits-p.mem0.byteHits, p.mem1.byteMisses-p.mem0.byteMisses)
	m["sched.float_pool_hit_ratio"] = ratio(p.mem1.floatHits-p.mem0.floatHits, p.mem1.floatMisses-p.mem0.floatMisses)
	m["go.alloc_mb_per_update"] = share(float64(p.mem1.totalAlloc-p.mem0.totalAlloc)/1e6, float64(p.attempted))
	m["go.gc_cpu_frac"] = share(p.mem1.gcCPU-p.mem0.gcCPU, p.mem1.allCPU-p.mem0.allCPU)
}

// encodeLayer reports the core encode stats of the given encodes.
func encodeLayer(stats []*core.Stats, m map[string]float64) {
	var wall, work, overlap, chunked, wait []float64
	var lossyRaw, lossyComp, deltaT, lossyT float64
	for _, s := range stats {
		wall = append(wall, ms(s.CompressTime))
		work = append(work, ms(s.EncodeWork))
		overlap = append(overlap, s.EncodeOverlapRatio())
		chunked = append(chunked, float64(s.ChunkedTensors))
		wait = append(wait, ms(s.WriteWait))
		lossyRaw += float64(s.LossyRaw)
		lossyComp += float64(s.LossyCompressed)
		deltaT += float64(s.DeltaTensors)
		lossyT += float64(s.LossyTensors)
	}
	m["core.encode_wall_ms"] = quantile(wall, 0.5)
	m["core.encode_work_ms"] = quantile(work, 0.5)
	m["core.encode_overlap"] = quantile(overlap, 0.5)
	m["core.chunked_tensors"] = quantile(chunked, 0.5)
	m["core.write_wait_ms"] = quantile(wait, 0.5)
	m["core.lossy_ratio"] = share(lossyRaw, lossyComp)
	m["core.delta_tensor_frac"] = share(deltaT, lossyT)
}

// report puts the measured values into the result with their units, and
// fails unless exactly the declared metrics were measured.
func report(m map[string]float64, units map[string]string, res *result) error {
	for name, v := range m {
		unit, ok := units[name]
		if !ok {
			return fmt.Errorf("metric %q is not declared", name)
		}
		res.Metrics[name] = metric{v, unit}
	}
	for name := range units {
		if _, ok := m[name]; !ok {
			return fmt.Errorf("metric %q was not measured", name)
		}
	}
	return nil
}

// endToEndUnits lists every end-to-end metric, with its unit; BENCHMARK.json
// declares the same set.
var endToEndUnits = map[string]string{
	"setup_s":               "s",
	"update_latency_p50_ms": "ms",
	"update_latency_p90_ms": "ms",
	"round_p50_ms":          "ms",
	"raw_mb_per_s":          "MB/s",
	"compression_ratio":     "x",
	"cpu_ms_per_update":     "ms",
	"breakeven_mbps":        "Mbit/s",
	"ok_frac":               "fraction",
	"peak_rss_mb":           "MB",
}

// perLayerUnits lists every per-layer metric a traced run reports, with
// its unit; BENCHMARK.json declares the same set.
var perLayerUnits = map[string]string{
	"sz2.encode_mb_per_s":           "MB/s",
	"sz2.encode_nolz_mb_per_s":      "MB/s",
	"lossless.lz_time_share":        "fraction",
	"core.encode_wall_ms":           "ms",
	"core.encode_work_ms":           "ms",
	"core.encode_overlap":           "fraction",
	"core.chunked_tensors":          "count",
	"lossless.lz_size_gain":         "fraction",
	"core.lossy_ratio":              "x",
	"core.delta_tensor_frac":        "fraction",
	"sz2.decode_mb_per_s":           "MB/s",
	"core.decode_mem_mb_per_s":      "MB/s",
	"wire.frame_mb_per_s":           "MB/s",
	"wire.deframe_mb_per_s":         "MB/s",
	"lossless.meta_encode_mb_per_s": "MB/s",
	"lossless.meta_decode_mb_per_s": "MB/s",
	"agg.ingest_ms":                 "ms",
	"agg.decode_work_ms":            "ms",
	"agg.ingest_mem_mb_per_s":       "MB/s",
	"agg.tail_ms":                   "ms",
	"agg.read_wait_ms":              "ms",
	"core.write_wait_ms":            "ms",
	"flserve.overlap_ratio":         "fraction",
	"flserve.rejected":              "count",
	"flserve.shed":                  "count",
	"agg.mean_ms":                   "ms",
	"delta.ref_set_ms":              "ms",
	"sched.byte_pool_hit_ratio":     "fraction",
	"sched.float_pool_hit_ratio":    "fraction",
	"go.alloc_mb_per_update":        "MB",
	"go.gc_cpu_frac":                "fraction",
	"trace.latency_ms":              "ms",
	"trace.client_ms":               "ms",
	"trace.deliver_ms":              "ms",
	"trace.tail_ms":                 "ms",
	"trace.unattributed_frac":       "fraction",
	"trace.overhead_frac":           "fraction",
	"trace.updates":                 "count",
}

func tally(p *phase, res *result) {
	res.Attempted += p.attempted
	res.Failed += p.failed
	for i := range p.rounds {
		logFailures(&p.rounds[i])
	}
}

// logFailures reports a round's failures on standard error.
func logFailures(o *roundOutcome) {
	if o.checkErr != nil {
		fmt.Fprintln(os.Stderr, "roundbench: mean check:", o.checkErr)
	}
	for _, u := range o.updates {
		if u.err != nil {
			fmt.Fprintf(os.Stderr, "roundbench: round %d client %d: %v\n", o.round, u.client, u.err)
		}
	}
}

// latencies returns the upload-to-ack times of the acked updates, in ms.
func latencies(p *phase) []float64 {
	var lat []float64
	for _, o := range p.rounds {
		for _, u := range o.updates {
			if u.err == nil {
				lat = append(lat, ms(u.ack.Sub(u.start)))
			}
		}
	}
	return lat
}

// printHost prints the host and the inputs as one JSON line, so results
// from different machines are never compared unawares.
func printHost(wl *workload, seed uint64, nproc int, traced bool, e *env, res *result) {
	sd := e.updates[0]
	lossy, chunks := 0, 0
	for _, en := range sd.Entries() {
		if takesLossyPath(en) {
			lossy++
			n := en.Tensor.NumElems()
			chunks += min(max(1, (n+core.DefaultChunkElems-1)/core.DefaultChunkElems), core.MaxChunks)
		}
	}
	info := map[string]any{
		"host": map[string]any{
			"nproc":      nproc,
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(),
			"cpu_model":  cpuModel(),
			"goarch":     runtime.GOARCH,
		},
		"inputs": map[string]any{
			"workload":             wl.name,
			"seed":                 seed,
			"trace":                traced,
			"clients":              e.clients,
			"raw_bytes_per_update": sd.SizeBytes(),
			"tensors":              sd.Len(),
			"lossy_tensors":        lossy,
			"lossy_chunks":         chunks,
			"attempted":            res.Attempted,
			"failed":               res.Failed,
		},
	}
	line, _ := json.Marshal(info) // maps of plain values always marshal
	fmt.Println(string(line))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return math.NaN()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(hits, misses uint64) float64 { return share(float64(hits), float64(hits+misses)) }

// share is part/whole, 0 for an empty whole.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
