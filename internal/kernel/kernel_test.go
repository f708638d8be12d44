package kernel

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/pmap"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/vm"
)

func TestBootAllPlatformsBothKernels(t *testing.T) {
	for _, plat := range arch.Evaluation() {
		for _, mk := range []MapperKind{SFBuf, OriginalKernel} {
			k, err := Boot(Config{
				Platform:     plat,
				Mapper:       mk,
				PhysPages:    256,
				Backed:       true,
				CacheEntries: 64,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", plat.Name, mk, err)
			}
			// Smoke: allocate, resolve, free a mapping.
			ctx := k.Ctx(0)
			pg, err := k.M.Phys.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			b, err := k.Map.Alloc(ctx, pg, 0)
			if err != nil {
				t.Fatalf("%s: %v", k.Name(), err)
			}
			if got, err := k.Pmap.Translate(ctx, b.KVA(), false); err != nil || got != pg {
				t.Fatalf("%s: translate = (%v, %v)", k.Name(), got, err)
			}
			k.Map.Free(ctx, b)
		}
	}
}

func TestMapperSelection(t *testing.T) {
	cases := []struct {
		plat  arch.Platform
		mk    MapperKind
		cache CachePolicy
		want  string
	}{
		{arch.XeonMP(), SFBuf, CacheSharded, "sf_buf/i386-sharded"},
		{arch.XeonMP(), SFBuf, CacheGlobal, "sf_buf/i386"},
		{arch.OpteronMP(), SFBuf, CacheSharded, "sf_buf/amd64"},
		{arch.Sparc64MP(), SFBuf, CacheSharded, "sf_buf/sparc64"},
		{arch.Sparc64MP(), SFBuf, CacheGlobal, "sf_buf/sparc64"},
		{arch.XeonMP(), OriginalKernel, CacheSharded, "original"},
		{arch.OpteronMP(), OriginalKernel, CacheGlobal, "original"},
	}
	for _, c := range cases {
		k := MustBoot(Config{Platform: c.plat, Mapper: c.mk, Cache: c.cache, PhysPages: 64, CacheEntries: 16})
		if k.Map.Name() != c.want {
			t.Fatalf("%s/%v/%v: mapper %q, want %q", c.plat.Name, c.mk, c.cache, k.Map.Name(), c.want)
		}
	}
}

func TestKernelNames(t *testing.T) {
	k := MustBoot(Config{Platform: arch.XeonHTT(), Mapper: SFBuf, PhysPages: 64, CacheEntries: 16})
	if k.Name() != "Xeon-HTT/sf_buf" {
		t.Fatalf("name = %q", k.Name())
	}
	k2 := MustBoot(Config{Platform: arch.OpteronMP(), Mapper: OriginalKernel, PhysPages: 64})
	if k2.Name() != "Opteron-MP/original" {
		t.Fatalf("name = %q", k2.Name())
	}
}

func TestCacheEntriesConfig(t *testing.T) {
	k := MustBoot(Config{Platform: arch.XeonMP(), Mapper: SFBuf, PhysPages: 64, CacheEntries: 6 * 1024})
	i386, ok := k.Map.(*sfbuf.I386)
	if !ok {
		t.Fatal("expected i386 mapper")
	}
	if i386.Entries() != 6*1024 {
		t.Fatalf("entries = %d, want 6144", i386.Entries())
	}
}

func TestShardedCacheKnobs(t *testing.T) {
	k := MustBoot(Config{
		Platform:       arch.XeonMP(),
		Mapper:         SFBuf,
		PhysPages:      64,
		CacheEntries:   1024,
		CacheShards:    4,
		ShootdownBatch: 9,
	})
	i386, ok := k.Map.(*sfbuf.I386)
	if !ok {
		t.Fatal("expected i386 mapper")
	}
	if got := i386.Shards(); got != 4 {
		t.Fatalf("shards = %d, want 4", got)
	}
	if got := k.M.ShootdownBatch(); got != 9 {
		t.Fatalf("shootdown batch = %d, want 9", got)
	}
	// The global engine reports a single stripe.
	kg := MustBoot(Config{Platform: arch.XeonMP(), Mapper: SFBuf, Cache: CacheGlobal,
		PhysPages: 64, CacheEntries: 1024})
	if got := kg.Map.(*sfbuf.I386).Shards(); got != 1 {
		t.Fatalf("global engine shards = %d, want 1", got)
	}
}

func TestResetClearsCountersAndStats(t *testing.T) {
	k := MustBoot(Config{Platform: arch.XeonMP(), Mapper: SFBuf, PhysPages: 64, CacheEntries: 16, Backed: true})
	ctx := k.Ctx(0)
	pg, _ := k.M.Phys.Alloc()
	b, _ := k.Map.Alloc(ctx, pg, 0)
	k.Map.Free(ctx, b)
	k.Reset()
	if k.Map.Stats().Allocs != 0 {
		t.Fatal("mapper stats not reset")
	}
	if k.M.TotalCycles() != 0 {
		t.Fatal("cycles not reset")
	}
}

func TestPhysBuddyResolution(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		buddy bool
	}{
		{"auto sf_buf sharded", Config{Mapper: SFBuf, Cache: CacheSharded}, true},
		{"auto sf_buf amd64", Config{Platform: arch.OpteronMP(), Mapper: SFBuf}, true},
		{"auto sf_buf global", Config{Mapper: SFBuf, Cache: CacheGlobal}, false},
		{"auto original", Config{Mapper: OriginalKernel}, false},
		{"forced on, global", Config{Mapper: SFBuf, Cache: CacheGlobal, PhysBuddy: PhysBuddyOn}, true},
		{"forced off, sharded", Config{Mapper: SFBuf, PhysBuddy: PhysBuddyOff}, false},
	}
	for _, c := range cases {
		if got := c.cfg.UsesBuddyPhys(); got != c.buddy {
			t.Errorf("%s: UsesBuddyPhys = %v, want %v", c.name, got, c.buddy)
		}
	}
	// The booted machine's pool must match the resolution.
	k := MustBoot(Config{Platform: arch.XeonMP(), Mapper: SFBuf, PhysPages: 128, CacheEntries: 32})
	if !k.M.Phys.Buddy() {
		t.Error("sharded sf_buf kernel did not boot the buddy allocator")
	}
	if st := k.PhysStats(); !st.Buddy || st.Frames != 128 {
		t.Errorf("PhysStats = %+v", st)
	}
	k = MustBoot(Config{Platform: arch.XeonMP(), Mapper: SFBuf, Cache: CacheGlobal, PhysPages: 128, CacheEntries: 32})
	if k.M.Phys.Buddy() {
		t.Error("global-lock figure kernel must keep the LIFO pool under Auto")
	}
}

func TestPhysContigAlignHints(t *testing.T) {
	k := MustBoot(Config{Platform: arch.XeonMP(), Mapper: SFBuf, PhysPages: 4096, CacheEntries: 32})
	if got := k.PhysContigAlign(pmap.SuperpagePages); got != pmap.SuperpagePages {
		t.Errorf("superpage-coverable align = %d, want %d", got, pmap.SuperpagePages)
	}
	if got := k.PhysContigAlign(8); got != 1 {
		t.Errorf("i386 small align = %d, want 1", got)
	}
	sp := MustBoot(Config{Platform: arch.Sparc64MP(), Mapper: SFBuf, PhysPages: 4096,
		NumColors: 4, EntriesPerColor: 64})
	if got := sp.PhysContigAlign(8); got != 4 {
		t.Errorf("sparc64 color align = %d, want 4", got)
	}
	// A color-aligned contiguous extent keeps the direct map color-
	// compatible: frame i's direct-map color is i mod NumColors.
	pages, err := sp.AllocPhysContig(8)
	if err != nil {
		t.Fatal(err)
	}
	if pages[0].Frame()%4 != 0 {
		t.Errorf("sparc64 extent starts at frame %d, want a multiple of 4", pages[0].Frame())
	}
}

// TestContigExtentChurnStress is the -race stress for fresh-extent
// churn: every CPU concurrently allocates physical extents through
// AllocPhysContig (scattered AllocN when contiguity runs out), maps them
// as runs, reads every page back through the MMU and frees both the
// mapping and the frames, so buddy splits, coalescing and run windows
// interleave across CPUs.  Every translation must resolve to the frame
// it maps, and the ledgers must balance afterwards.
func TestContigExtentChurnStress(t *testing.T) {
	const span = pmap.SuperpagePages
	k := MustBoot(Config{
		Platform:     arch.XeonMPHTT(),
		Mapper:       SFBuf,
		Cache:        CacheSharded,
		PhysPages:    32 * span,
		CacheEntries: 2*span + 64,
	})
	free := k.M.Phys.FreeFrames()
	var wg sync.WaitGroup
	errs := make([]error, k.M.NumCPUs())
	for cpu := range errs {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			ctx := k.Ctx(cpu)
			for i := 0; i < 40; i++ {
				n := 16 << (i % 3)
				if i%8 == 7 {
					n = span
				}
				pages, err := k.AllocPhysContig(n)
				if errors.Is(err, vm.ErrNoContig) {
					pages, err = k.M.Phys.AllocN(n)
				}
				if err != nil {
					errs[cpu] = err
					return
				}
				rn, err := k.Map.AllocRun(ctx, pages, 0)
				if err != nil {
					errs[cpu] = err
					return
				}
				for j, pg := range pages {
					got, err := k.Pmap.Translate(ctx, rn.KVA(j), false)
					if err == nil && got != pg {
						err = fmt.Errorf("slot %d resolved frame %d, want %d", j, got.Frame(), pg.Frame())
					}
					if err != nil {
						errs[cpu] = err
						return
					}
				}
				k.Map.FreeRun(ctx, rn)
				for _, pg := range pages {
					k.M.Phys.Free(pg)
				}
			}
		}(cpu)
	}
	wg.Wait()
	for cpu, err := range errs {
		if err != nil {
			t.Fatalf("cpu %d: %v", cpu, err)
		}
	}
	if st := k.Map.Stats(); st.Allocs != st.Frees {
		t.Fatalf("ledger: allocs %d != frees %d", st.Allocs, st.Frees)
	}
	if got := k.M.Phys.FreeFrames(); got != free {
		t.Fatalf("free frames %d after the churn, want %d", got, free)
	}
}
