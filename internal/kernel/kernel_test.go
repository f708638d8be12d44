package kernel

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/pmap"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
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

// TestShardedCacheKnobs: the sharded engine derives its stripe count and
// the machine its shootdown flush threshold; the global engine reports a
// single stripe.
func TestShardedCacheKnobs(t *testing.T) {
	k := MustBoot(Config{
		Platform:     arch.XeonMP(),
		Mapper:       SFBuf,
		PhysPages:    64,
		CacheEntries: 1024,
	})
	i386, ok := k.Map.(*sfbuf.I386)
	if !ok {
		t.Fatal("expected i386 mapper")
	}
	if got := i386.Shards(); got != 2*k.M.NumCPUs() {
		t.Fatalf("shards = %d, want %d (2 per CPU)", got, 2*k.M.NumCPUs())
	}
	if got := k.M.ShootdownBatch(); got != smp.DefaultShootdownBatch {
		t.Fatalf("shootdown batch = %d, want %d", got, smp.DefaultShootdownBatch)
	}
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

// running reports the features a booted kernel actually runs, read off
// the machine it built rather than off its configuration.
func running(k *Kernel) Feature {
	var f Feature
	if k.M.Phys.Buddy() {
		f |= FeatureBuddy
	}
	if order, _ := k.M.Phys.Reservation(); order > 0 {
		f |= FeatureReserv
	}
	if k.MigrationEnabled() {
		f |= FeatureMigrate
	}
	if k.TierHintsEnabled() {
		f |= FeatureTierHints
	}
	if k.Arena.Regions() > 1 {
		f |= FeatureHoming
	}
	if k.DaemonEnabled() {
		f |= FeatureDaemon
	}
	if k.UseRuns() {
		f |= FeatureRuns
	}
	return f
}

// TestBootWiring boots each engine with nothing and with each feature
// disabled, on a two-socket machine with a tiered pool, and checks what
// the kernel runs: the engine's features minus the disabled one (and
// minus everything that lives in the buddy allocator when the buddy
// allocator is the one disabled), with adaptive consumers exactly where
// runs meet a bounded mapping cache.
func TestBootWiring(t *testing.T) {
	const all = FeatureBuddy | FeatureReserv | FeatureMigrate | FeatureTierHints |
		FeatureHoming | FeatureDaemon | FeatureRuns
	const inBuddy = FeatureReserv | FeatureMigrate | FeatureTierHints
	engines := []struct {
		name     string
		cfg      Config
		supports Feature
		adaptive bool
	}{
		{"sharded i386", Config{Platform: arch.XeonNUMA(2, 2), Mapper: SFBuf, CacheEntries: 64}, all, true},
		{"global i386", Config{Platform: arch.XeonNUMA(2, 2), Mapper: SFBuf, Cache: CacheGlobal, CacheEntries: 64}, 0, false},
		{"original", Config{Platform: arch.XeonNUMA(2, 2), Mapper: OriginalKernel}, 0, false},
		{"amd64", Config{Platform: arch.OpteronMP(), Mapper: SFBuf},
			FeatureBuddy | FeatureReserv | FeatureHoming | FeatureRuns, false},
	}
	bits := []Feature{0, FeatureBuddy, FeatureReserv, FeatureMigrate, FeatureTierHints,
		FeatureHoming, FeatureDaemon, FeatureRuns}
	for _, e := range engines {
		for _, off := range bits {
			t.Run(fmt.Sprintf("%s/disable=%#x", e.name, uint(off)), func(t *testing.T) {
				cfg := e.cfg
				cfg.PhysPages, cfg.Sockets, cfg.Tiers, cfg.Disable = 1024, 2, 2, off
				k, err := Boot(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := e.supports &^ off
				if off == FeatureBuddy {
					want &^= inBuddy
				}
				if got := running(k); got != want {
					t.Errorf("running %#x, want %#x", uint(got), uint(want))
				}
				adaptive := e.adaptive && off != FeatureRuns
				if got := k.Consumer("wiring").PolicyStats().Adaptive; got != adaptive {
					t.Errorf("adaptive consumer = %v, want %v", got, adaptive)
				}
			})
		}
	}
}

// TestBootRejectsConfig: configurations Boot cannot build come back as
// errors instead of panics or silent clamps.
func TestBootRejectsConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"no platform", Config{}},
		{"sockets do not divide the CPUs", Config{Platform: arch.XeonMP(), Sockets: 3}},
		{"negative sockets", Config{Platform: arch.XeonMP(), Sockets: -1}},
		{"negative physical memory", Config{Platform: arch.XeonMP(), PhysPages: -5}},
		{"three tiers", Config{Platform: arch.XeonMP(), Tiers: 3}},
		{"negative tiers", Config{Platform: arch.XeonMP(), Tiers: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Mapper = SFBuf
			if tc.cfg.PhysPages == 0 {
				tc.cfg.PhysPages = 64
			}
			if k, err := Boot(tc.cfg); err == nil {
				t.Fatalf("Boot(%+v) booted %s, want an error", tc.cfg, k.Name())
			}
		})
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
	sp := MustBoot(Config{Platform: arch.Sparc64MP(), Mapper: SFBuf, PhysPages: 4096})
	colors := sp.Map.(*sfbuf.Sparc64).NumColors()
	if got := sp.PhysContigAlign(8); got != colors {
		t.Errorf("sparc64 color align = %d, want %d", got, colors)
	}
	// A color-aligned contiguous extent keeps the direct map color-
	// compatible: frame i's direct-map color is i mod the color count.
	pages, err := sp.AllocPhysContig(8)
	if err != nil {
		t.Fatal(err)
	}
	if pages[0].Frame()%uint64(colors) != 0 {
		t.Errorf("sparc64 extent starts at frame %d, want a multiple of %d", pages[0].Frame(), colors)
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
