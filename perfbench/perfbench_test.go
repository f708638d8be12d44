package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"sfbuf/internal/experiments"
)

// TestServeReproducesCanonical pins the re-driven serve workload to the
// experiment it re-drives: at the canonical constants and seed it must
// reproduce experiments.RunServeVariant(adaptive) exactly.
func TestServeReproducesCanonical(t *testing.T) {
	if DefaultSeed != experiments.ServeSeed {
		t.Fatalf("DefaultSeed %d != experiments.ServeSeed %d", DefaultSeed, experiments.ServeSeed)
	}
	want, err := experiments.RunServeVariant(experiments.ServeVariants()[0], experiments.ServeClients)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runSub(findWorkloadT(t, "serve"), DefaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("hash %x p50 %d p99 %d completed %d/%d",
		r.digest, percentile(r.lat, 0.50), percentile(r.lat, 0.99), len(r.lat), r.attempted)
	canon := fmt.Sprintf("hash %x p50 %d p99 %d completed %d/%d",
		want.TraceHash, want.P50, want.P99, want.Completed, want.Requests)
	if got != canon {
		t.Fatalf("re-driven serve: %s\ncanonical serve:  %s", got, canon)
	}
	const pinned = "hash ad9fc9ffcaab7c8a p50 10660 p99 297560 completed 1938/2000"
	if got != pinned {
		t.Errorf("serve moved from the pinned canonical result:\n got %s\nwant %s", got, pinned)
	}
}

// TestSimulatedMetricsHostIndependent runs one sub-run of every workload
// at GOMAXPROCS 1 and 2, and traced: every simulated number must be
// bit-identical, so neither host parallelism nor tracing perturbs the
// model.
func TestSimulatedMetricsHostIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			seed := subSeed(HeldOutSeed, 1)
			runtime.GOMAXPROCS(1)
			one, err := runSub(w, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			runtime.GOMAXPROCS(2)
			two, err := runSub(w, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameSim(one, two); err != nil {
				t.Errorf("GOMAXPROCS 1 vs 2: %v", err)
			}
			traced, err := runSub(w, seed, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			if err := sameSim(one, traced); err != nil {
				t.Errorf("untraced vs traced: %v", err)
			}
			if len(traced.tr.spans) == 0 {
				t.Errorf("traced sub-run recorded no spans")
			}
			if one.failed != 0 {
				t.Errorf("%d of %d ops failed", one.failed, one.attempted)
			}
		})
	}
}

// TestTierFragExercisesLayers checks that tiered-frag's default seed does
// the work the workload exists for: the migrator moves pages, the tier
// keeper promotes, the daemon runs and superpage windows promote, all
// in the measured phase.
func TestTierFragExercisesLayers(t *testing.T) {
	r, err := runSub(findWorkloadT(t, "tiered-frag"), DefaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"sfbuf.migrate.pages_moved",
		"kernel.tier_promoted_pages",
		"sfbuf.daemon.passes",
		"pmap.promotions",
	} {
		if r.sim[name] <= 0 {
			t.Errorf("%s = %v in the measured phase, want > 0", name, r.sim[name])
		}
	}
	if r.failed != 0 {
		t.Errorf("%d of %d ops failed", r.failed, r.attempted)
	}
}

// TestSelfTimes checks the self-time rule on a hand-built span tree: a
// span's self time is its duration minus its direct children's.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "op", start: 0, end: 100, parent: -1},
		{name: "sfbuf", start: 10, end: 30, parent: 0},
		{name: "kcopy", start: 40, end: 90, parent: 0},
		{name: "pmap", start: 50, end: 60, parent: 2},
	}}
	got := tr.selfTimes()
	want := map[string]layerTime{
		"op": {1, 30}, "sfbuf": {1, 20}, "kcopy": {1, 40}, "pmap": {1, 10},
	}
	for name := range want {
		if got[name] != want[name] {
			t.Errorf("%s: got %+v, want %+v", name, got[name], want[name])
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's metric and
// workload tables in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloadList))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadList[i].name || w.Why != workloadList[i].why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, w, workloadList[i].name, workloadList[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func findWorkloadT(t *testing.T, name string) workload {
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}
