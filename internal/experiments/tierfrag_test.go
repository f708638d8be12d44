package experiments

import (
	"errors"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/kernel"
	"sfbuf/internal/pmap"
	"sfbuf/internal/vm"
	"sfbuf/internal/vm/physcheck"
)

// TestTierFragIdleQuiet runs the tiered-frag mix — zipfian consumer
// accesses to long-lived extents, a FIFO of superpage extents and
// periodic idle ticks — on a two-tier pool shaped by ShapeOccupancy,
// with the default daemon, migrator and tier keeper.  Idle ticks must
// move no tier pages: an idle demotion empties fast frames that the
// defragmenter refills with the same cold extents, so the two duties
// trade pages back and forth.  Over the run the keeper must demote no
// more than it promotes, and every byte and free list must survive.
func TestTierFragIdleQuiet(t *testing.T) {
	const rounds = 40
	span := pmap.SuperpagePages
	k, err := kernel.Boot(kernel.Config{
		Platform:     arch.XeonMPHTT(),
		Mapper:       kernel.SFBuf,
		PhysPages:    defragSpans * span,
		Backed:       true,
		CacheEntries: 2*span + 64,
		Tiers:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !k.TierHintsEnabled() || !k.DaemonEnabled() {
		t.Fatal("default tiered boot has no tier keeper or no daemon")
	}
	shape, err := ShapeOccupancy(k)
	if err != nil {
		t.Fatal(err)
	}
	// Long-lived extents, spread evenly over the held pages so both
	// tiers hold some.
	extents := make([][]*vm.Page, TierExtents)
	step := len(shape.Held) / TierExtents
	for e := range extents {
		extents[e] = shape.Held[e*step : e*step+TierExtentLen]
	}

	m := &mapper{k: k, cons: k.Consumer("tier"), serve: serveTierExtent}
	ncpu := k.M.NumCPUs()
	cum := tierZipfCum()
	state := uint64(0x9E3779B97F4A7C15)
	moves := func() uint64 {
		st := k.TierStats()
		return st.PromotedPages + st.DemotedPages
	}
	var hold [][]*vm.Page
	var idleMoved uint64
	op := 0
	for r := 0; r < rounds; r++ {
		for i := 0; i <= span/TierExtentLen; i++ {
			ctx := k.Ctx(op % ncpu)
			op++
			if op%tierIdleEvery == 0 {
				before := moves()
				k.Idle(ctx.CPUID(), 1<<15)
				idleMoved += moves() - before
			}
			if i < span/TierExtentLen {
				state = state*tierLCGMul + tierLCGInc
				u := float64(state>>11) / (1 << 53)
				rank := 0
				for cum[rank] < u {
					rank++
				}
				if err := m.touch(ctx, extents[tierExtentOf(rank)], PathConsumer); err != nil {
					t.Fatalf("round %d: access: %v", r, err)
				}
				continue
			}
			if len(hold) >= defragHold {
				for _, pg := range hold[0] {
					k.M.Phys.Free(pg)
				}
				hold = hold[1:]
			}
			pages, err := k.AllocPhysContig(span)
			if errors.Is(err, vm.ErrNoContig) {
				pages, err = k.M.Phys.AllocN(span)
			}
			if err != nil {
				t.Fatalf("round %d: extent: %v", r, err)
			}
			hold = append(hold, pages)
			if err := m.touch(ctx, pages, PathRun); err != nil {
				t.Fatalf("round %d: extent: %v", r, err)
			}
		}
	}
	st := k.TierStats()
	t.Logf("tier keeper: %d pages promoted, %d demoted, %d of them on idle ticks; migrator moved %d",
		st.PromotedPages, st.DemotedPages, idleMoved, k.MigrationStats().PagesMoved)
	if idleMoved != 0 {
		t.Errorf("idle ticks moved %d tier pages, want 0", idleMoved)
	}
	if st.PromotedPages == 0 {
		t.Error("the keeper promoted nothing; the mix must exercise it")
	}
	if st.DemotedPages > st.PromotedPages {
		t.Errorf("keeper demoted %d pages but promoted only %d", st.DemotedPages, st.PromotedPages)
	}
	if err := checkLedger(k); err != nil {
		t.Error(err)
	}
	if err := shape.Oracle.Check(k.M.Phys); err != nil {
		t.Errorf("byte oracle: %v", err)
	}
	if err := physcheck.Audit(k.M.Phys); err != nil {
		t.Errorf("free-list audit: %v", err)
	}
}
