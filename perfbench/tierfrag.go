package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"sfbuf/internal/arch"
	"sfbuf/internal/experiments"
	"sfbuf/internal/kcopy"
	"sfbuf/internal/kernel"
	"sfbuf/internal/pmap"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
	"sfbuf/internal/vm/physcheck"
)

// The tiered-frag workload is memory pressure: a two-tier buddy pool
// (fast tier DefaultFastFraction of the frames) with the kernel's default
// reservations, migration and tier hints, shaped by
// experiments.ShapeOccupancy — dense spans fully resident, five sparse
// spans holding one survivor per 16 frames, ~70% occupancy and no intact
// superpage block.  The op stream mixes zipfian accesses to long-lived
// extents with the tier experiment's working set and skew (map as the
// consumer policy decides, copy and checksum against each page's current
// frame, unmap), short-lived superpage extents from AllocPhysContig
// (written and checksummed through an aligned run window, then parked in
// a short FIFO), and the defrag
// experiment's idle tick at the tier experiment's period, so the buddy
// allocator, the migrator, the tier keeper and the daemon all do their
// work here.
const (
	// tfSpans is the pool ShapeOccupancy shapes, in superpage spans.
	tfSpans = 16
	// Long-lived extents are tfExtentMin..tfExtentMax pages, seeded,
	// around the tier experiment's TierExtentLen: they span two of the
	// consumer's size classes, so both classes' run/batch choices are
	// exercised, and the median op's length moves with the seed.
	tfExtentMin = experiments.TierExtentLen * 3 / 4
	tfExtentMax = experiments.TierExtentLen * 5 / 4
	// tfZipfS is the tier experiment's skew: steep enough that the reuse
	// EWMAs of the hot extents clear the tier keeper's threshold.
	tfZipfS = 1.3
	// Per round: tfAccesses extent accesses, on average as many pages
	// as the one superpage extent that follows, so reuse and allocation
	// churn carry equal payload and a gain for one that costs the other
	// shows.
	tfAccesses = pmap.SuperpagePages / experiments.TierExtentLen
	// tfIdleEvery and tfIdleTick are the tier experiment's idle period
	// in ops and the defrag experiment's idle budget in cycles.
	tfIdleEvery = 16
	tfIdleTick  = 1 << 15
	// tfHold is the defrag experiment's FIFO depth of live superpage
	// extents, which ShapeOccupancy checks the shaped pool can float.
	tfHold = 3
	// tfWarmupRounds lets the first recoveries happen before measuring.
	tfWarmupRounds = 8
	// tfRounds keeps a sub-run's measured phase (~0.5 s) longer than
	// the tier and defrag experiments' arms (68 ms and 0.28 s).
	tfRounds = 100
	// tfCacheEntries is the defrag experiment's cache: two superpage
	// runs beside the extent windows.
	tfCacheEntries = 2*pmap.SuperpagePages + 64
	// tfFills is how many distinct contents a superpage extent is
	// written with: windows fillStep bytes apart in one seeded buffer,
	// so a stale frame left by an earlier extent fails the checksum.
	tfFills    = 16
	fillStep   = 4096 + 8
	tfConsumer = "tierfrag"
)

type tfInst struct {
	k       *kernel.Kernel
	rng     *rand.Rand
	cum     []float64
	perm    []int
	extents [][]*vm.Page
	sums    []uint32
	oracle  *physcheck.Oracle
	cons    *kernel.MapConsumer
	hold    [][]*vm.Page
	op      int
	// fill holds the superpage contents (see fillWindow), fillSums
	// their checksums.
	fill     []byte
	fillSums []uint32
	// scratch buffers reused by every op.
	got []*vm.Page
	buf []byte
}

func setupTierFrag(seed int64, tr *tracer) (instance, error) {
	span := pmap.SuperpagePages
	k, err := kernel.Boot(kernel.Config{
		Platform:     arch.XeonMPHTT(),
		Mapper:       kernel.SFBuf,
		PhysPages:    tfSpans * span,
		Backed:       true,
		CacheEntries: tfCacheEntries,
		Tiers:        2,
	})
	if err != nil {
		return nil, err
	}
	in := &tfInst{
		k:    k,
		rng:  rand.New(rand.NewSource(seed)),
		cons: k.Consumer(tfConsumer),
		buf:  make([]byte, tfExtentMax*vm.PageSize),
		fill: make([]byte, span*vm.PageSize+tfFills*fillStep),
	}
	sp := tr.begin("workloads")
	shape, err := experiments.ShapeOccupancy(k)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	in.oracle = shape.Oracle
	in.pickExtents(shape.Held)
	in.rng.Read(in.fill)
	for i := 0; i < tfFills; i++ {
		in.fillSums = append(in.fillSums, byteSum(in.fillWindow(i)))
	}
	in.cum = make([]float64, len(in.extents))
	total := 0.0
	for r := range in.cum {
		total += 1 / math.Pow(float64(r+1), tfZipfS)
		in.cum[r] = total
	}
	for r := range in.cum {
		in.cum[r] /= total
	}
	in.perm = in.rng.Perm(len(in.extents))
	for r := 0; r < tfWarmupRounds; r++ {
		if _, err := in.round(nil, nil); err != nil {
			return nil, fmt.Errorf("tiered-frag warmup: %w", err)
		}
	}
	return in, nil
}

// pickExtents cuts the dense spans' resident pages into slots of
// tfExtentMax consecutive pages and keeps TierExtents of them, chosen by
// the seed, as the long-lived extents, each a seeded tfExtentMin..
// tfExtentMax-page prefix of its slot.  Their expected checksums are
// those of the tags ShapeOccupancy stamped, which the oracle holds them
// to.
func (in *tfInst) pickExtents(held []*vm.Page) {
	span := pmap.SuperpagePages
	perSpan := make(map[int]int)
	for _, pg := range held {
		perSpan[int(pg.Frame())/span]++
	}
	var slots [][]*vm.Page
	for i := 0; i+tfExtentMax <= len(held); {
		g := held[i : i+tfExtentMax]
		s := int(g[0].Frame()) / span
		if perSpan[s] < span || int(g[len(g)-1].Frame())/span != s {
			i++
			continue
		}
		slots = append(slots, g)
		i += len(g)
	}
	for _, g := range in.rng.Perm(len(slots))[:experiments.TierExtents] {
		ext := slots[g][:tfExtentMin+in.rng.Intn(tfExtentMax-tfExtentMin+1)]
		var sum uint32
		for _, pg := range ext {
			sum += byteSum(pg.Data())
		}
		in.extents = append(in.extents, ext)
		in.sums = append(in.sums, sum)
	}
}

func byteSum(b []byte) uint32 {
	var sum uint32
	for _, c := range b {
		sum += uint32(c)
	}
	return sum
}

func (in *tfInst) kernel() *kernel.Kernel { return in.k }

func (in *tfInst) fillWindow(i int) []byte {
	return in.fill[i*fillStep:][:pmap.SuperpagePages*vm.PageSize]
}

// next returns the context of the next op's CPU (round-robin) and
// advances the op counter, running the idle tick on its period.
func (in *tfInst) next(tr *tracer) *smp.Context {
	ctx := in.k.Ctx(in.op % in.k.M.NumCPUs())
	in.op++
	if in.op%tfIdleEvery == 0 {
		sp := tr.begin("kernel")
		in.k.Idle(ctx.CPUID(), tfIdleTick)
		tr.end(sp)
	}
	return ctx
}

// access serves one zipf-chosen long-lived extent: map by the consumer's
// policy (its observation is also the tier hint), copy the extent out
// and checksum it through the mapping, verify, unmap.  It returns the
// extent's length in pages.
func (in *tfInst) access(ctx *smp.Context, tr *tracer) (int, error) {
	u := in.rng.Float64()
	rank := 0
	for in.cum[rank] < u {
		rank++
	}
	e := in.perm[rank]
	ext := in.extents[e]
	var sum uint32
	var err error
	if in.cons.UseRuns(ctx, ext) {
		sp := tr.begin("sfbuf")
		rn, aerr := in.k.Map.AllocRun(ctx, ext, 0)
		tr.end(sp)
		if aerr != nil {
			return 0, aerr
		}
		sum, err = in.touchRun(ctx, tr, rn, ext, nil)
		sp = tr.begin("sfbuf")
		in.k.Map.FreeRun(ctx, rn)
		tr.end(sp)
	} else {
		sp := tr.begin("sfbuf")
		bufs, aerr := in.k.Map.AllocBatch(ctx, ext, 0)
		tr.end(sp)
		if aerr != nil {
			return 0, aerr
		}
		sp = tr.begin("kcopy")
		err = kcopy.CopyOutVec(ctx, in.k.Pmap, in.buf[:len(ext)*vm.PageSize], bufs, 0)
		for _, b := range bufs {
			var s uint32
			if err == nil {
				s, err = kcopy.Checksum(ctx, in.k.Pmap, b.KVA(), vm.PageSize)
			}
			sum += s
		}
		tr.end(sp)
		sp = tr.begin("sfbuf")
		in.k.Map.FreeBatch(ctx, bufs)
		tr.end(sp)
	}
	if err != nil {
		return 0, err
	}
	if sum != in.sums[e] {
		return 0, fmt.Errorf("extent %d: checksum %#x, want %#x", e, sum, in.sums[e])
	}
	return len(ext), nil
}

// touchRun translates a run window and checks it resolves to pages, then
// copies it out (src == nil) or in, and checksums it.
func (in *tfInst) touchRun(ctx *smp.Context, tr *tracer, rn *sfbuf.Run, pages []*vm.Page, src []byte) (uint32, error) {
	if rn.Contiguous() {
		var err error
		sp := tr.begin("pmap")
		in.got, err = in.k.Pmap.TranslateRun(ctx, rn.Base(), rn.Len(), src != nil, in.got[:0])
		tr.end(sp)
		if err != nil {
			return 0, err
		}
	} else {
		in.got = in.got[:0]
		for j := 0; j < rn.Len(); j++ {
			sp := tr.begin("pmap")
			pg, err := in.k.Pmap.Translate(ctx, rn.KVA(j), src != nil)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
			in.got = append(in.got, pg)
		}
	}
	for j, pg := range in.got {
		if pg != pages[j] {
			return 0, fmt.Errorf("run slot %d resolved a different page", j)
		}
	}
	sp := tr.begin("kcopy")
	defer tr.end(sp)
	var err error
	if src != nil {
		err = kcopy.CopyInRun(ctx, in.k.Pmap, rn, 0, src)
	} else {
		err = kcopy.CopyOutRun(ctx, in.k.Pmap, in.buf[:rn.Len()*vm.PageSize], rn, 0)
	}
	if err != nil {
		return 0, err
	}
	if !rn.Contiguous() {
		var sum uint32
		for j := 0; j < rn.Len(); j++ {
			s, err := kcopy.Checksum(ctx, in.k.Pmap, rn.KVA(j), vm.PageSize)
			if err != nil {
				return 0, err
			}
			sum += s
		}
		return sum, nil
	}
	return kcopy.ChecksumRun(ctx, in.k.Pmap, rn.Base(), rn.Len()*vm.PageSize)
}

// extent allocates one short-lived superpage extent, writes and
// checksums it through an aligned run window, and parks it in the FIFO.
// It reports false when no contiguous extent could be had.
func (in *tfInst) extent(ctx *smp.Context, tr *tracer) (bool, error) {
	span := pmap.SuperpagePages
	sp := tr.begin("vm")
	if len(in.hold) >= tfHold {
		for _, pg := range in.hold[0] {
			in.k.M.Phys.Free(pg)
		}
		in.hold = in.hold[1:]
	}
	pages, err := in.k.AllocPhysContig(span)
	tr.end(sp)
	if errors.Is(err, vm.ErrNoContig) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	in.hold = append(in.hold, pages)
	sp = tr.begin("sfbuf")
	rn, err := in.k.Map.AllocRun(ctx, pages, 0)
	tr.end(sp)
	if err != nil {
		return false, err
	}
	w := in.rng.Intn(tfFills)
	sum, err := in.touchRun(ctx, tr, rn, pages, in.fillWindow(w))
	sp = tr.begin("sfbuf")
	in.k.Map.FreeRun(ctx, rn)
	tr.end(sp)
	if err != nil {
		return false, err
	}
	if sum != in.fillSums[w] {
		return false, fmt.Errorf("superpage extent: checksum %#x, want %#x", sum, in.fillSums[w])
	}
	return true, nil
}

// round runs tfAccesses extent accesses and one superpage extent,
// appending each op's latency to out when it is non-nil.
func (in *tfInst) round(tr *tracer, out *outcome) (pages float64, err error) {
	for i := 0; i <= tfAccesses; i++ {
		ctx := in.next(tr)
		c0 := in.k.M.TotalCycles()
		op := tr.beginOp(in.op)
		ok := true
		if i < tfAccesses {
			var n int
			n, err = in.access(ctx, tr)
			pages += float64(n)
		} else if ok, err = in.extent(ctx, tr); ok {
			pages += pmap.SuperpagePages
		}
		tr.endOp(op)
		if err != nil {
			return 0, err
		}
		if out != nil {
			out.attempted++
			if !ok {
				out.failed++
				continue
			}
			out.lat = append(out.lat, int64(in.k.M.TotalCycles()-c0))
		}
	}
	return pages, nil
}

// run executes tfRounds rounds; an op is one extent access or one
// superpage extent, its latency the cycles the machine was charged while
// it ran, not only the issuing CPU's: AllocPhysContig's on-demand
// migration is charged to CPU 0 and shootdown handlers to the remote
// CPUs.  The loop is closed: ops issue back to back.
func (in *tfInst) run(tr *tracer) (*outcome, error) {
	out := &outcome{lat: make([]int64, 0, tfRounds*(tfAccesses+1))}
	for r := 0; r < tfRounds; r++ {
		p, err := in.round(tr, out)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		out.pages += p
	}
	return out, nil
}

// check releases the parked extents and runs the byte oracle over every
// resident page and the structural free-list audit.
func (in *tfInst) check() error {
	for _, ext := range in.hold {
		for _, pg := range ext {
			in.k.M.Phys.Free(pg)
		}
	}
	in.hold = nil
	if err := in.oracle.Check(in.k.M.Phys); err != nil {
		return fmt.Errorf("byte oracle: %w", err)
	}
	if err := physcheck.Audit(in.k.M.Phys); err != nil {
		return fmt.Errorf("free-list audit: %w", err)
	}
	return nil
}
