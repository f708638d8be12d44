package experiments

import (
	"fmt"

	"sfbuf/internal/arch"
	"sfbuf/internal/kernel"
	"sfbuf/internal/pmap"
	"sfbuf/internal/vm"
)

func init() {
	register("scale", RunScale)
}

// RunScale goes beyond the paper: it measures the mapping cache itself
// under multiprocessor contention, comparing the sharded per-CPU engine
// against the paper's global-lock cache and the original kernel.  Every
// CPU churns shared Alloc/touch/Free cycles over a working set larger
// than the cache, the worst case for the Section 4.2 design: each miss
// replaces an accessed mapping, so the global cache pays one shootdown
// IPI round per miss, while the sharded cache batches the same teardown
// debt into one ranged round per reclaim batch.
//
// Reported per variant: hit rate, local invalidations, remote IPI rounds
// and IPIs delivered per 1000 operations, lock round trips per operation,
// page-table walks and TLB entries filled per operation (the touch is
// through the honest MMU, so walk economy shows up here), and the
// shootdown-queue coalescing factor (invalidations retired per flush).
// Each engine appears four times: churning one page at a time, churning
// the same pages through the vectored AllocBatch/FreeBatch calls in runs
// of ScaleBatch — the lock column is where the vectored fast path shows
// up — churning them as contiguous AllocRun windows read under ranged
// translation, where the walks column collapses, and churning them
// through a per-consumer policy handle (the adaptive rows), which routes
// each extent the way the converted subsystems would.
func RunScale(o Options) (*Result, error) {
	res := &Result{
		ID:    "scale",
		Title: "Contended Alloc/Free: sharded vs. global-lock vs. original (Xeon 4-way)",
		Columns: []string{"variant", "ops", "hit rate", "local/1k ops",
			"remote rounds/1k ops", "IPIs/1k ops", "locks/op", "rlocks/op",
			"rIPIs/op", "walks/op", "tlb/op", "coalesce", "contig%", "promo/s",
			"fast%/op"},
		Notes: []string{
			"working set is 4x the cache so every shared reuse of the global cache pays a shootdown round",
			"coalesce = invalidations retired per batched flush (sharded engine only)",
			"walks/op = page-table walks per page touched; run rows pay one walk per contiguous run",
			"tlb/op = TLB entries filled per page touched (base + superpage entries)",
			"frag rows churn FRESH physical extents after a fragmentation-churn warmup; contig% is the fraction served physically contiguous (buddy allocator coalesces, LIFO never recovers)",
			"defrag rows run the shaped ~70%-occupancy steady-churn driver (experiment \"defrag\"): superpage extents under residency that defeats plain coalescing, migration on vs. off; promo/s counts superpage promotions per simulated second",
			"rlocks/op and rIPIs/op are cross-package lock acquisitions and IPI deliveries; zero on the flat single-package machine",
			"N-socket rows run the same shared churn on 2- and 4-package NUMA Xeons, socket-homed vs. hash-striped state",
			"tier rows run the tiered-memory zipfian serving arms (experiment \"tier\"); fast%/op is the fraction of served pages found fast-tier resident",
		},
	}

	plat := arch.XeonMPHTT()
	entries := o.scaleInt(256, 64)
	ops := o.scaleInt(200000, 4000)
	// Cap the batch so every CPU can hold a full run concurrently with
	// half the cache to spare: otherwise all CPUs could sleep mid-batch
	// holding partial runs with nobody left to free.
	batch := ScaleBatch
	if max := entries / (2 * plat.NumCPUs); batch > max {
		batch = max
	}
	if batch < 1 {
		batch = 1
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("batch rows churn the same pages through AllocBatch/FreeBatch in runs of %d", batch),
		fmt.Sprintf("run rows churn them as contiguous AllocRun windows of %d under ranged translation", batch),
		"adaptive rows route each extent through a consumer handle (the per-consumer contiguity policy), as the converted subsystems do")

	type variant struct {
		name string
		cfg  kernel.Config
	}
	base := kernel.Config{
		Platform:     plat,
		PhysPages:    8*entries + 128,
		Backed:       false,
		CacheEntries: entries,
	}
	variants := []variant{
		{"sf_buf sharded", func() kernel.Config {
			c := base
			c.Mapper = kernel.SFBuf
			c.Cache = kernel.CacheSharded
			return c
		}()},
		{"sf_buf global-lock", func() kernel.Config {
			c := base
			c.Mapper = kernel.SFBuf
			c.Cache = kernel.CacheGlobal
			return c
		}()},
		{"original", func() kernel.Config {
			c := base
			c.Mapper = kernel.OriginalKernel
			return c
		}()},
	}

	for _, mode := range []struct {
		name string
		path Path
	}{
		{"single", PathSingle}, {"batch", PathBatch}, {"run", PathRun},
		{"adaptive", PathConsumer}, {"frag", PathRun},
	} {
		n := batch
		if mode.path == PathSingle {
			n = 1
		}
		for _, v := range variants {
			name := v.name
			if mode.name != "single" {
				name = v.name + " " + mode.name
			}
			k, err := kernel.Boot(v.cfg)
			if err != nil {
				return nil, err
			}
			var done int
			contigCol := "-"
			if mode.name == "frag" {
				// The frag rows allocate their extents fresh from the
				// churned physical allocator instead of a boot-time pool.
				if err := FragmentPhys(k); err != nil {
					return nil, fmt.Errorf("scale %s warmup: %w", name, err)
				}
				k.Reset()
				w, fresh := FreshWorkload(k, n, mode.path)
				done, err = Churn(k, ops, w)
				if err == nil {
					contigCol = fmt.Sprintf("%.2f", fresh.Frac())
					res.SetMetric("contig_frac/"+name, fresh.Frac())
				}
			} else {
				var pages []*vm.Page
				pages, err = k.M.Phys.AllocN(4 * entries)
				if err != nil {
					return nil, err
				}
				done, err = Churn(k, ops, SharedWorkload(k, pages, n, mode.path))
			}
			if err != nil {
				return nil, fmt.Errorf("scale %s: %w", name, err)
			}
			scaleRow(res, k, name, done, contigCol, "-", "-")
		}
	}

	// Idle-gap rows: the same vectored churn on the sharded engine, but
	// with periodic idle ticks between rounds — once with the background
	// reclaim daemon riding the ticks, once with the ticks advancing time
	// only.  Steady-state economy must match the plain batch row (the
	// daemon runs exclusively against idle time); the reclaim experiment
	// measures what the daemon buys the first alloc after each gap.
	for _, ir := range []struct {
		name    string
		disable kernel.Feature
	}{
		{"sf_buf sharded idle", kernel.FeatureDaemon},
		{"sf_buf sharded idle+daemon", 0},
	} {
		cfg := variants[0].cfg
		cfg.Disable = ir.disable
		k, err := kernel.Boot(cfg)
		if err != nil {
			return nil, err
		}
		pages, err := k.M.Phys.AllocN(4 * entries)
		if err != nil {
			return nil, err
		}
		done, err := Churn(k, ops, idleEvery(k, SharedWorkload(k, pages, batch, PathBatch), 8, 1<<16))
		if err != nil {
			return nil, fmt.Errorf("scale %s: %w", ir.name, err)
		}
		scaleRow(res, k, ir.name, done, "-", "-", "-")
	}

	// Multi-package rows: the same shared churn on 2- and 4-socket NUMA
	// Xeons, sharded engine, once with the mapping state socket-homed and
	// once hash-striped.  The rlocks/op and rIPIs/op columns — zero
	// everywhere above — light up here: the striped layout's shard homes
	// fall round-robin across packages, so most lock round trips cross the
	// interconnect; the homed layout keeps them inside the package except
	// where the shared working set genuinely crosses sockets.  The numa
	// experiment isolates the placement effect on a socket-local workload;
	// these rows show it under the scale churn's worst-case sharing.
	for _, sockets := range []int{2, 4} {
		for _, hp := range []struct {
			name    string
			disable kernel.Feature
		}{
			{"homed", 0},
			{"striped", kernel.FeatureHoming},
		} {
			cfg := kernel.Config{
				Platform:     arch.XeonNUMA(sockets, 2),
				Mapper:       kernel.SFBuf,
				Cache:        kernel.CacheSharded,
				PhysPages:    8*entries + 128,
				CacheEntries: entries,
				Sockets:      sockets,
				Disable:      hp.disable,
			}
			k, err := kernel.Boot(cfg)
			if err != nil {
				return nil, err
			}
			pages, err := k.M.Phys.AllocN(4 * entries)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("sf_buf sharded %s %d-socket", hp.name, sockets)
			done, err := Churn(k, ops, SharedWorkload(k, pages, 1, PathSingle))
			if err != nil {
				return nil, fmt.Errorf("scale %s: %w", name, err)
			}
			scaleRow(res, k, name, done, "-", "-", "-")
		}
	}

	// Defrag rows: the same steady-churn driver the defrag experiment
	// measures, on the shaped ~70%-occupancy pool whose scattered
	// residents defeat plain buddy coalescing.  The contig% and promo/s
	// columns — frozen at 0 on the no-defrag row — show migration turning
	// the shaped pool back into a superpage server; the shared economy
	// columns show what the steady churn pays for it (nothing measurable:
	// evacuations ride idle ticks and contiguity misses).
	defragRounds := o.scaleInt(40960, 8192) / (DefragChurnOps + pmap.SuperpagePages)
	if defragRounds < 4 {
		defragRounds = 4
	}
	for _, dr := range []struct {
		name    string
		disable kernel.Feature
	}{
		{"sf_buf sharded defrag", 0},
		{"sf_buf sharded no-defrag", kernel.FeatureMigrate},
	} {
		arm, err := RunDefragArm(dr.disable, defragRounds)
		if err != nil {
			return nil, fmt.Errorf("scale %s: %w", dr.name, err)
		}
		scaleRow(res, arm.K, dr.name, arm.Done,
			fmt.Sprintf("%.2f", arm.ContigFrac), fmtF(arm.PromoPerSec), "-")
		res.SetMetric("contig_frac/"+dr.name, arm.ContigFrac)
		res.SetMetric("promo_per_sec/"+dr.name, arm.PromoPerSec)
	}

	// Tier rows: the tiered-memory zipfian serving arms (the tier
	// experiment's headline comparison) under the scale table's shared
	// economy columns.  The fast%/op column — dashed everywhere above —
	// lights up here: hinted placement parks the popular extents fast-tier
	// resident, the oblivious arm serves them from wherever allocation
	// order left them.
	tierAcc := o.scaleInt(12000, 1600)
	tierWarm := 400 + tierAcc/10
	for _, tr := range []struct {
		name    string
		disable kernel.Feature
	}{
		{"sf_buf sharded tier hinted", 0},
		{"sf_buf sharded tier oblivious", kernel.FeatureTierHints},
	} {
		arm, err := RunTierArm(tr.disable, "zipf", tierWarm, tierAcc)
		if err != nil {
			return nil, fmt.Errorf("scale %s: %w", tr.name, err)
		}
		ff := tierFastFrac(arm.Stats)
		scaleRow(res, arm.K, tr.name, arm.Pages, "-", "-",
			fmt.Sprintf("%.2f", ff))
		res.SetMetric("fast_frac/"+tr.name, ff)
		res.SetMetric("cyc_per_page/"+tr.name, arm.CycPerPage)
	}
	return res, nil
}

// scaleRow appends one engine's churn economy to the scale result: the
// shared row/metric emission for the variant grid, the idle-gap, NUMA
// and defrag rows.
func scaleRow(res *Result, k *kernel.Kernel, name string, done int, contigCol, promoCol, fastCol string) {
	s := k.M.SnapshotCounters()
	st := k.Map.Stats()
	perK := func(n uint64) float64 { return float64(n) * 1000 / float64(done) }
	coalesce := 0.0
	if s.BatchedFlushes > 0 {
		coalesce = float64(s.BatchedInv) / float64(s.BatchedFlushes)
	}
	locksPerOp := float64(s.LockAcq) / float64(done)
	rlocksPerOp := float64(s.RemoteLockAcq) / float64(done)
	ripisPerOp := float64(s.RemoteIPIs) / float64(done)
	walksPerOp := float64(s.PTWalks) / float64(done)
	var tlbTouched uint64
	for cpu := 0; cpu < k.M.NumCPUs(); cpu++ {
		ts := k.M.CPU(cpu).TLBStats()
		tlbTouched += ts.Inserts + ts.LargeInserts
	}
	tlbPerOp := float64(tlbTouched) / float64(done)
	res.Rows = append(res.Rows, []string{
		name, fmt.Sprintf("%d", done), fmt.Sprintf("%.2f", st.HitRate()),
		fmtF(perK(s.LocalInv)), fmtF(perK(s.RemoteInvIssued)),
		fmtF(perK(s.IPIsDelivered)), fmt.Sprintf("%.2f", locksPerOp),
		fmt.Sprintf("%.4f", rlocksPerOp), fmt.Sprintf("%.4f", ripisPerOp),
		fmt.Sprintf("%.3f", walksPerOp), fmt.Sprintf("%.3f", tlbPerOp),
		fmtF(coalesce), contigCol, promoCol, fastCol,
	})
	res.SetMetric("remote_per_kop/"+name, perK(s.RemoteInvIssued))
	res.SetMetric("ipis_per_kop/"+name, perK(s.IPIsDelivered))
	res.SetMetric("local_per_kop/"+name, perK(s.LocalInv))
	res.SetMetric("hitrate/"+name, st.HitRate())
	res.SetMetric("coalesce/"+name, coalesce)
	res.SetMetric("locks_per_op/"+name, locksPerOp)
	res.SetMetric("remote_locks_per_op/"+name, rlocksPerOp)
	res.SetMetric("remote_ipis_per_op/"+name, ripisPerOp)
	res.SetMetric("walks_per_op/"+name, walksPerOp)
	res.SetMetric("tlb_per_op/"+name, tlbPerOp)
}

// ScaleBatch is the run length the scale experiment's batch rows use —
// also the batch size of the acceptance benchmark BenchmarkAllocBatch.
const ScaleBatch = 16
