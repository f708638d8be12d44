package experiments

import (
	"errors"
	"fmt"

	"sfbuf/internal/cycles"
	"sfbuf/internal/kernel"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// This file holds the one multi-CPU churn driver and its op generators.
// Every simulated CPU's work runs on the calling goroutine in a fixed
// round-robin order — round outermost, CPU innermost — so every modeled
// count is a function of the workload alone: the same on any host, at
// any GOMAXPROCS, on every run.  Genuine concurrency is the business of
// the -race stress tests, which check safety, never economy.

// Path is how a churn maps, touches and releases an extent.
type Path int

const (
	// PathSingle maps each page on its own: Alloc, translate, Free.
	PathSingle Path = iota
	// PathBatch maps the extent with one AllocBatch, translates every
	// page through the honest MMU and releases it with one FreeBatch.
	PathBatch
	// PathRun maps the extent as one AllocRun window swept by ONE ranged
	// translation (page by page when the engine returns a scattered
	// run) and releases it with one FreeRun.
	PathRun
	// PathConsumer routes each extent through a consumer handle, exactly
	// as the converted subsystems do: PathRun where it says runs,
	// PathBatch otherwise.
	PathConsumer
)

// errMisresolved reports a translation that resolved a different page
// than the one mapped: a stale or corrupted mapping.
var errMisresolved = errors.New("translation resolved a different page")

// mapper is the one map/touch/release block every churn shares.  Every
// translation is checked against the page it must resolve to; checking
// charges nothing, so it cannot move a modeled count.
type mapper struct {
	k     *kernel.Kernel
	cons  *kernel.MapConsumer // PathConsumer's router
	flags sfbuf.Flags
	// serve, when set, runs while a batch or run extent is mapped: the
	// per-page work a consumer does through its mappings.
	serve func(ctx *smp.Context, ext []*vm.Page)
	got   []*vm.Page
}

// touch maps ext on ctx along path, reads every page through the honest
// MMU — so the accessed bits, walks and TLB fills are load-bearing —
// and releases the mapping.
func (m *mapper) touch(ctx *smp.Context, ext []*vm.Page, path Path) error {
	k := m.k
	if path == PathConsumer {
		path = PathBatch
		if m.cons.UseRuns(ctx, ext) {
			path = PathRun
		}
	}
	switch path {
	case PathSingle:
		for _, pg := range ext {
			b, err := k.Map.Alloc(ctx, pg, m.flags)
			if err != nil {
				return err
			}
			err = m.check(ctx, b.KVA(), pg)
			k.Map.Free(ctx, b)
			if err != nil {
				return err
			}
		}
		return nil
	case PathBatch:
		bufs, err := k.Map.AllocBatch(ctx, ext, m.flags)
		if err != nil {
			return err
		}
		defer k.Map.FreeBatch(ctx, bufs)
		for j, b := range bufs {
			if err := m.check(ctx, b.KVA(), ext[j]); err != nil {
				return err
			}
		}
	case PathRun:
		rn, err := k.Map.AllocRun(ctx, ext, m.flags)
		if err != nil {
			return err
		}
		defer k.Map.FreeRun(ctx, rn)
		if rn.Contiguous() {
			if m.got, err = k.Pmap.TranslateRun(ctx, rn.Base(), rn.Len(), false, m.got[:0]); err != nil {
				return err
			}
			for j, pg := range m.got {
				if pg != ext[j] {
					return errMisresolved
				}
			}
		} else {
			for j := 0; j < rn.Len(); j++ {
				if err := m.check(ctx, rn.KVA(j), ext[j]); err != nil {
					return err
				}
			}
		}
	default:
		return fmt.Errorf("unknown mapping path %d", path)
	}
	if m.serve != nil {
		m.serve(ctx, ext)
	}
	return nil
}

// check translates kva and verifies it resolves to want.
func (m *mapper) check(ctx *smp.Context, kva uint64, want *vm.Page) error {
	pg, err := m.k.Pmap.Translate(ctx, kva, false)
	if err == nil && pg != want {
		err = errMisresolved
	}
	return err
}

// checkLedger guards the simulation's invariant after a churn: every
// mapping reference taken was released.
func checkLedger(k *kernel.Kernel) error {
	if st := k.Map.Stats(); st.Allocs != st.Frees {
		return fmt.Errorf("leaked references: allocs %d != frees %d", st.Allocs, st.Frees)
	}
	return nil
}

// Workload is a churn's op generator.
type Workload struct {
	// Len is the pages each op moves.
	Len int
	// Op performs round r of one CPU's work on that CPU's context.
	Op func(ctx *smp.Context, cpu, r int) error
}

// Churn is the deterministic multi-CPU driver: it runs roughly ops pages
// of w on every CPU in fixed round-robin order on the calling goroutine,
// at least one round, and returns the pages actually moved.  The
// benchmarks drive the same calls as the experiments, so the two cannot
// drift apart.
func Churn(k *kernel.Kernel, ops int, w Workload) (int, error) {
	ncpu := k.M.NumCPUs()
	rounds := max(1, ops/(ncpu*w.Len))
	for r := 0; r < rounds; r++ {
		for cpu := 0; cpu < ncpu; cpu++ {
			if err := w.Op(k.Ctx(cpu), cpu, r); err != nil {
				return 0, fmt.Errorf("cpu %d round %d: %w", cpu, r, err)
			}
		}
	}
	if err := checkLedger(k); err != nil {
		return 0, err
	}
	return rounds * ncpu * w.Len, nil
}

// SharedWorkload is the scale experiment's contended churn: every CPU
// walks the shared working set at its own stride, n pages per extent, so
// frames stay spread across shards and the CPUs genuinely share them.
// path says how each extent is mapped; PathConsumer routes through the
// "scale" consumer handle.
func SharedWorkload(k *kernel.Kernel, pages []*vm.Page, n int, path Path) Workload {
	m := &mapper{k: k}
	if path == PathConsumer {
		m.cons = k.Consumer("scale")
	}
	ext := make([]*vm.Page, n)
	return Workload{Len: n, Op: func(ctx *smp.Context, cpu, r int) error {
		for j := range ext {
			ext[j] = pages[(r*n*(2*cpu+1)+j*7+cpu*11)%len(pages)]
		}
		return m.touch(ctx, ext, path)
	}}
}

// idleEvery gives every CPU an idle tick of gap cycles after each every
// rounds of w: the background daemon's slot, when one is enabled.
func idleEvery(k *kernel.Kernel, w Workload, every int, gap cycles.Cycles) Workload {
	op := w.Op
	w.Op = func(ctx *smp.Context, cpu, r int) error {
		if err := op(ctx, cpu, r); err != nil {
			return err
		}
		if (r+1)%every == 0 {
			k.Idle(cpu, gap)
		}
		return nil
	}
	return w
}

// FreshStats counts a FreshWorkload's extents and how many of them were
// served physically contiguous.
type FreshStats struct{ Extents, Contig int }

// Frac is the fraction of extents served physically contiguous.
func (s *FreshStats) Frac() float64 {
	if s.Extents == 0 {
		return 0
	}
	return float64(s.Contig) / float64(s.Extents)
}

// FreshWorkload is the post-fragmentation extent churn: every op
// allocates a FRESH n-page physical extent — AllocPhysContig with the
// kernel's alignment hint where the allocator can, scattered AllocN
// where it cannot — maps it along path, and frees both the mapping and
// the frames.  On a buddy machine the contiguous fraction stays ~1.0
// because freed extents coalesce; on a LIFO machine it is 0 forever.
// With n = pmap.SuperpagePages every contiguous extent's aligned window
// promotes, which is the recovery the promotion-recovery test measures.
func FreshWorkload(k *kernel.Kernel, n int, path Path) (Workload, *FreshStats) {
	m := &mapper{k: k}
	st := &FreshStats{}
	return Workload{Len: n, Op: func(ctx *smp.Context, cpu, r int) error {
		pages, err := k.AllocPhysContig(n)
		if errors.Is(err, vm.ErrNoContig) {
			pages, err = k.M.Phys.AllocN(n)
		} else if err == nil {
			st.Contig++
		}
		if err != nil {
			return err
		}
		st.Extents++
		err = m.touch(ctx, pages, path)
		for _, pg := range pages {
			k.M.Phys.Free(pg)
		}
		return err
	}}, st
}
