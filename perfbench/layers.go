package main

import (
	"sfbuf/internal/cycles"
	"sfbuf/internal/kernel"
	"sfbuf/internal/pmap"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
	"sfbuf/internal/tlb"
	"sfbuf/internal/vm"
)

// layerSnap is a point-in-time copy of every layer's public counters on
// one kernel.  The benchmark reads layers only through these snapshots:
// the per-layer counts it reports are deltas over the measured phase.
type layerSnap struct {
	total  cycles.Cycles
	smp    smp.Snapshot
	tlb    tlb.Stats
	super  pmap.SuperStats
	sfbuf  sfbuf.Stats
	daemon sfbuf.DaemonStats
	mig    sfbuf.MigrationStats
	phys   vm.PhysStats
	tier   kernel.TierStats
	flips  uint64
}

func snapshot(k *kernel.Kernel) layerSnap {
	s := layerSnap{
		total:  k.M.TotalCycles(),
		smp:    k.M.SnapshotCounters(),
		super:  k.Pmap.SuperStats(),
		sfbuf:  k.Map.Stats(),
		daemon: k.DaemonStats(),
		mig:    k.MigrationStats(),
		phys:   k.PhysStats(),
		tier:   k.TierStats(),
	}
	for c := 0; c < k.M.NumCPUs(); c++ {
		t := k.M.CPU(c).TLBStats()
		s.tlb.Lookups += t.Lookups
		s.tlb.Hits += t.Hits
		s.tlb.Misses += t.Misses
	}
	for _, ps := range k.PolicyStats() {
		s.flips += ps.Flips
	}
	return s
}

// tierPages returns one consumer's observed and fast-resident page counts.
func (s layerSnap) tierPages(consumer string) (pages, fast uint64) {
	for _, c := range s.tier.Consumers {
		if c.Name == consumer {
			return c.Pages, c.FastPages
		}
	}
	return 0, 0
}

// ratio is a/b, or 0 when b is 0 (a layer idle on this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounts derives the simulated per-layer metrics from the snapshots
// taken around the measured phase.  pages is the payload moved, ops the
// workload operations attempted, and consumer the kernel policy handle
// whose tier placement the workload exercises (empty for none).
func layerCounts(before, after layerSnap, pages float64, ops int, consumer string) map[string]float64 {
	d := after.smp.Sub(before.smp)
	f := func(v uint64) float64 { return float64(v) }
	sf := func(get func(sfbuf.Stats) uint64) float64 { return f(get(after.sfbuf) - get(before.sfbuf)) }
	total := float64(after.total - before.total)
	kpages := pages / 1000

	hits, misses := sf(func(s sfbuf.Stats) uint64 { return s.Hits }), sf(func(s sfbuf.Stats) uint64 { return s.Misses })
	runAllocs := sf(func(s sfbuf.Stats) uint64 { return s.RunAllocs })
	contigOK := f(after.phys.ContigAllocs - before.phys.ContigAllocs)
	contigFail := f(after.phys.ContigFails - before.phys.ContigFails)
	migFreed := f(after.mig.BlocksFreed - before.mig.BlocksFreed)
	migSkipped := f(after.mig.BlocksSkipped - before.mig.BlocksSkipped)
	tp1, tf1 := after.tierPages(consumer)
	tp0, tf0 := before.tierPages(consumer)

	return map[string]float64{
		"smp.locks_per_page":            ratio(f(d.LockAcq), pages),
		"smp.local_inv_per_page":        ratio(f(d.LocalInv), pages),
		"smp.shootdown_rounds_per_page": ratio(f(d.RemoteInvIssued), pages),
		"smp.ipis_per_page":             ratio(f(d.IPIsDelivered), pages),
		"smp.handler_cycles_per_page":   ratio(float64(d.HandlerCycles), pages),
		"smp.coalesce":                  ratio(f(d.BatchedInv), f(d.BatchedFlushes)),
		"smp.daemon_cycles_share":       ratio(float64(d.DaemonCycles), total),
		"smp.slow_mem_cycles_per_page":  ratio(float64(d.SlowMemCycles), pages),
		"tlb.hit_ratio":                 ratio(f(after.tlb.Hits-before.tlb.Hits), f(after.tlb.Lookups-before.tlb.Lookups)),
		"tlb.misses_per_page":           ratio(f(after.tlb.Misses-before.tlb.Misses), pages),
		"pmap.walks_per_page":           ratio(f(d.PTWalks), pages),
		"pmap.promotions":               f(after.super.Promotions - before.super.Promotions),
		"pmap.align_skips":              f(after.super.AlignSkips - before.super.AlignSkips),
		"sfbuf.hit_ratio":               ratio(hits, hits+misses),
		"sfbuf.reclaims_per_kpage":      ratio(sf(func(s sfbuf.Stats) uint64 { return s.Reclaims }), kpages),
		"sfbuf.would_block_per_op":      ratio(sf(func(s sfbuf.Stats) uint64 { return s.WouldBlock }), float64(ops)),
		"sfbuf.run_revive_ratio":        ratio(sf(func(s sfbuf.Stats) uint64 { return s.RunRevives }), runAllocs),
		"sfbuf.pages_per_run":           ratio(sf(func(s sfbuf.Stats) uint64 { return s.RunPages }), runAllocs),
		"sfbuf.daemon.passes":           f(after.daemon.Passes - before.daemon.Passes),
		"sfbuf.daemon.refilled_bufs":    f(after.daemon.RefilledBufs - before.daemon.RefilledBufs),
		"sfbuf.daemon.aged_launders":    f(after.daemon.AgedLaunders - before.daemon.AgedLaunders),
		"sfbuf.migrate.pages_moved":     f(after.mig.PagesMoved - before.mig.PagesMoved),
		"sfbuf.migrate.blocks_freed":    migFreed,
		"sfbuf.migrate.useful_ratio":    ratio(migFreed, migFreed+migSkipped),
		"vm.contig_success_ratio":       ratio(contigOK, contigOK+contigFail),
		"vm.splits_per_kpage":           ratio(f(after.phys.Splits-before.phys.Splits), kpages),
		"vm.coalesces_per_kpage":        ratio(f(after.phys.Coalesces-before.phys.Coalesces), kpages),
		"vm.reserv_spills":              f(after.phys.ReservSpills - before.phys.ReservSpills),
		"vm.largest_free_extent":        float64(after.phys.LargestFreeExtent),
		"kernel.tier_fast_ratio":        ratio(f(tf1-tf0), f(tp1-tp0)),
		"kernel.tier_promoted_pages":    f(after.tier.PromotedPages - before.tier.PromotedPages),
		"kernel.tier_demoted_pages":     f(after.tier.DemotedPages - before.tier.DemotedPages),
		"kernel.tier_promote_fails":     f(after.tier.PromoteFails - before.tier.PromoteFails),
		"kernel.policy_flips":           f(after.flips - before.flips),
	}
}
