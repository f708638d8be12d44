package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"

	"sfbuf/internal/kernel"
)

// instance is one set-up workload, ready for its measured phase.
type instance interface {
	kernel() *kernel.Kernel
	// run is the measured phase: it drives the simulated CPUs and
	// records spans on tr (nil when untraced).
	run(tr *tracer) (*outcome, error)
	// check verifies the workload's outputs after measurement.
	check() error
}

// outcome is what a measured phase did.
type outcome struct {
	// lat holds one simulated latency per completed op, in cycles.
	lat []int64
	// pages is the payload moved, in 4 KiB pages.
	pages             float64
	attempted, failed int
	// layer holds workload-specific simulated layer metrics.
	layer map[string]float64
	// digest is an extra determinism witness (serve's packet trace).
	digest uint64
}

// subRun is one set-up, measured phase and check at one sub-seed.
type subRun struct {
	seed int64
	// Host cost, in CPU seconds of this process.
	setupS, measureS float64
	allocBytes       float64
	liveHeapMB       float64
	// Simulated results: sim holds every per-sub-run simulated number
	// and must be bit-identical whenever the sub-seed is run again.
	lat               []int64
	cycles            float64
	pages             float64
	attempted, failed int
	sim               map[string]float64
	digest            uint64
	// Traced sub-runs keep their per-layer self times, and the first
	// one of a run its spans.
	tr   *tracer
	self map[string]layerTime
}

// cpuSeconds is the process's user+system CPU time.  Host costs are
// measured in CPU time rather than wall time: on a shared machine it
// does not count the time the process waited for a CPU.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// subSeed derives sub-run i's seed; sub-run 0 runs the seed itself, so
// the default seed's first serve sub-run is the canonical serve run.
func subSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	z := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// percentile is the nearest-rank p-th percentile of a sorted sample, the
// rule workloads.RunServe uses.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	i = max(0, min(i, len(sorted)-1))
	return sorted[i]
}

// runSub sets up, measures and checks one sub-run.
func runSub(w workload, seed int64, tr *tracer) (*subRun, error) {
	runtime.GC()
	c0 := cpuSeconds()
	inst, err := w.setup(seed, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r := &subRun{seed: seed, setupS: cpuSeconds() - c0, tr: tr}
	k := inst.kernel()

	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := snapshot(k)
	c1 := cpuSeconds()
	out, err := inst.run(tr)
	r.measureS = cpuSeconds() - c1
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	after := snapshot(k)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	r.liveHeapMB = float64(m2.HeapAlloc) / (1 << 20)

	if err := inst.check(); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	if st := k.Map.Stats(); st.Allocs != st.Frees {
		return nil, fmt.Errorf("output check: mapper allocs %d != frees %d", st.Allocs, st.Frees)
	}
	runtime.KeepAlive(inst)

	r.lat = append([]int64(nil), out.lat...)
	sort.Slice(r.lat, func(a, b int) bool { return r.lat[a] < r.lat[b] })
	r.cycles = float64(after.total - before.total)
	r.pages, r.attempted, r.failed = out.pages, out.attempted, out.failed
	r.allocBytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	r.sim = layerCounts(before, after, out.pages, out.attempted, w.consumer)
	for name, v := range out.layer {
		r.sim[name] = v
	}
	r.sim["cycles"] = r.cycles
	r.sim["pages"] = r.pages
	r.sim["failed"] = float64(r.failed)
	r.sim["p50"] = float64(percentile(r.lat, 0.50))
	r.sim["p999"] = float64(percentile(r.lat, 0.999))
	r.digest = out.digest
	return r, nil
}

// sameSim reports the first simulated number on which two sub-runs of
// one sub-seed differ: the model is deterministic, so any difference is
// a defect.
func sameSim(a, b *subRun) error {
	if a.digest != b.digest {
		return fmt.Errorf("digest differs between runs of seed %d: %x vs %x", a.seed, a.digest, b.digest)
	}
	if len(a.sim) != len(b.sim) {
		return fmt.Errorf("simulated metric sets differ between runs of seed %d", a.seed)
	}
	for k, v := range a.sim {
		if w := b.sim[k]; math.Float64bits(w) != math.Float64bits(v) {
			return fmt.Errorf("simulated %s differs between runs of seed %d: %v vs %v (traced %v vs %v)",
				k, a.seed, v, w, a.tr != nil, b.tr != nil)
		}
	}
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(runs []*subRun, get func(*subRun) float64) float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = get(r)
	}
	return median(xs)
}

// benchResult is one run: the pooled simulated metrics of the workload's
// fixed sub-runs and the host metrics of every sub-run made.
type benchResult struct {
	metrics           map[string]float64
	subRuns, hostRuns int
	attempted, failed int
	traced            []*subRun
}

// tracedSubRuns bounds how many sub-runs a trace-mode run repeats with
// tracing on: enough for steady self times, few enough that a traced run
// costs little more than an untraced one.
const tracedSubRuns = 4

// runBench runs the workload's fixed sub-runs — the simulated metrics
// pool exactly these, so they do not depend on host speed — then keeps
// re-running them in order until seconds of wall time have passed,
// checking each repeat is bit-identical and adding its host cost to the
// host metrics.  In trace mode the first tracedSubRuns sub-runs are each
// followed by a traced run of the same sub-seed, which must also be
// bit-identical.
func runBench(w workload, seed int64, seconds float64, trace bool, wallSince func() float64) (*benchResult, error) {
	var fixed, host, traced []*subRun
	var overhead []float64
	for i := 0; i < w.subRuns || wallSince() < seconds; i++ {
		j := i % w.subRuns
		r, err := runSub(w, subSeed(seed, j), nil)
		if err != nil {
			return nil, fmt.Errorf("%s sub-run %d (seed %d): %w", w.name, j, subSeed(seed, j), err)
		}
		if i < w.subRuns {
			fixed = append(fixed, r)
		} else if err := sameSim(fixed[j], r); err != nil {
			return nil, err
		}
		host = append(host, r)
		if trace && i < tracedSubRuns {
			t, err := runSub(w, r.seed, newTracer())
			if err != nil {
				return nil, fmt.Errorf("%s traced sub-run %d: %w", w.name, j, err)
			}
			if err := sameSim(r, t); err != nil {
				return nil, err
			}
			t.self = t.tr.selfTimes()
			if len(traced) > 0 {
				t.tr = nil
			}
			traced = append(traced, t)
			overhead = append(overhead, t.measureS/r.measureS-1)
		}
	}

	res := &benchResult{metrics: make(map[string]float64), subRuns: len(fixed), hostRuns: len(host), traced: traced}
	m := res.metrics
	var lat []int64
	var cycles, pages float64
	for _, r := range fixed {
		lat = append(lat, r.lat...)
		cycles += r.cycles
		pages += r.pages
		res.attempted += r.attempted
		res.failed += r.failed
		for k, v := range r.sim {
			m[k] += v / float64(len(fixed))
		}
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	m["op_p50_cycles"] = float64(percentile(lat, 0.50))
	m["op_p95_cycles"] = float64(percentile(lat, 0.95))
	m["op_p99_cycles"] = float64(percentile(lat, 0.99))
	m["op_p999_cycles"] = float64(percentile(lat, 0.999))
	m["cycles_per_page"] = cycles / pages
	m["fail_ratio"] = float64(res.failed) / float64(res.attempted)
	m["samples"] = float64(len(lat))

	// Throughput and churn pool every sub-run made, as cycles_per_page
	// pools the fixed ones: each sub-seed allocates its own, repeatable
	// amount per page, so a median would jump between sub-seeds.
	var hostPages, hostS, hostAlloc float64
	for _, r := range host {
		hostPages += r.pages
		hostS += r.measureS
		hostAlloc += r.allocBytes
	}
	m["host_pages_per_s"] = hostPages / hostS
	m["host_alloc_bytes_per_page"] = hostAlloc / hostPages
	m["host_live_heap_mb"] = medianOf(host, func(r *subRun) float64 { return r.liveHeapMB })
	m["setup_s"] = medianOf(host, func(r *subRun) float64 { return r.setupS })
	if trace {
		m["trace.overhead_ratio"] = median(overhead)
		for span, metric := range selfTimeMetric {
			m[metric] = medianOf(traced, func(r *subRun) float64 {
				lt := r.self[span]
				return ratio(float64(lt.selfNs), float64(lt.calls))
			})
		}
		m["vnet.self_ns_per_page"] = medianOf(traced, func(r *subRun) float64 {
			return float64(r.self["vnet"].selfNs) / r.pages
		})
		m["workloads.setup_self_ms"] = medianOf(traced, func(r *subRun) float64 {
			return float64(r.self["workloads"].selfNs) / 1e6
		})
	}
	return res, nil
}
