// Package kernel assembles a bootable simulated kernel: machine, physical
// memory, page tables, the kernel virtual-address arena, and an ephemeral
// mapping implementation — either the sf_buf kernel or the original
// kernel, selected by configuration exactly as the paper's evaluation
// boots one or the other.
package kernel

import (
	"errors"
	"fmt"
	"sync"

	"sfbuf/internal/arch"
	"sfbuf/internal/cycles"
	"sfbuf/internal/kva"
	"sfbuf/internal/pmap"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// MapperKind selects which ephemeral mapping management the kernel boots
// with.
type MapperKind int

const (
	// SFBuf is the paper's kernel: the architecture-appropriate sf_buf
	// implementation (i386 mapping cache, amd64 direct map, sparc64
	// hybrid).
	SFBuf MapperKind = iota
	// OriginalKernel is the baseline: fresh virtual address per mapping,
	// global invalidation per unmapping.
	OriginalKernel
)

// String names the kernel variant as the paper's figures label it.
func (k MapperKind) String() string {
	if k == SFBuf {
		return "sf_buf"
	}
	return "original"
}

// CachePolicy selects the concurrency engine behind the i386 and sparc64
// mapping caches.  The Table-1 semantics are identical either way; the
// engines differ in locking granularity and in when TLB shootdowns are
// issued.
type CachePolicy int

const (
	// CacheSharded is the default: the hash table and inactive list are
	// split into lock-striped shards, each CPU keeps a freelist of clean
	// buffers it can allocate from without invalidations, and teardown
	// shootdowns are coalesced into one ranged IPI round per reclaim
	// batch.
	CacheSharded CachePolicy = iota
	// CacheGlobal is the paper's Section 4.2 design, byte-for-byte: one
	// mutex, lazy teardown, one shootdown round per shared reuse of an
	// accessed mapping.  The evaluation experiments pin this policy so
	// the reproduced figures keep matching the paper.
	CacheGlobal
)

// String names the cache engine for reports.
func (p CachePolicy) String() string {
	if p == CacheGlobal {
		return "global"
	}
	return "sharded"
}

// Feature names one engine feature that Config.Disable can switch off.
// Boot turns on every feature the booted engine supports; the figure
// engines (the paper's global-lock cache and the original kernel) support
// none of them, so figure reproduction keeps the seed's exact paths.
// There is no way to force a feature on: the bits exist for the
// ablation arms that measure what each feature is worth.
type Feature uint

const (
	// FeatureBuddy is the buddy frame allocator, whose order-indexed free
	// lists keep physically contiguous, aligned extents allocatable after
	// churn.  Disabled, the pool is the seed's LIFO free stack, on which
	// contiguity exists only at boot — and with it go reservations,
	// migration and tier hints, which all live in the buddy allocator.
	FeatureBuddy Feature = 1 << iota
	// FeatureReserv is superpage reservation watermarks: while a socket's
	// stock of intact superpage-span blocks is low, single-page
	// allocation steers into smaller blocks.
	FeatureReserv
	// FeatureMigrate is defragmentation by migration: a Migrator that
	// evacuates the few resident pages out of nearly-free superpage spans,
	// as the daemon's idle-tick duty and on demand from AllocPhysContig.
	FeatureMigrate
	// FeatureTierHints is consumer-hinted hot-extent placement on a tiered
	// pool (Config.Tiers = 2).  Disabled, the tiers still charge their
	// costs but frames stay where allocation put them.
	FeatureTierHints
	// FeatureHoming is socket-homed mapping state on a multi-socket
	// machine (Config.Sockets > 1).  Disabled, shard homes fall
	// round-robin across packages, clean stock and the overflow pool stay
	// global, and reclaim's hand rotates over every socket's shards.
	FeatureHoming
	// FeatureDaemon is the background reclaim-and-laundering daemon that
	// rides Kernel.Idle.  Disabled, reclaim happens only on
	// allocation-miss shortage, the paper's behaviour.
	FeatureDaemon
	// FeatureRuns is contiguous-run mapping of multi-page extents and the
	// adaptive per-consumer policy that flips between runs and batches.
	// Disabled, every consumer maps extents as batches or pages.
	FeatureRuns
)

// DefaultFastFraction is the fast tier's default share of each socket's
// frames when Config.Tiers selects a tiered pool without an explicit
// FastFraction.
const DefaultFastFraction = 0.25

// reservLowWater is the per-socket intact-superpage stock below which
// single-page allocation steers away from protected blocks.
const reservLowWater = 2

// The sparc64 hybrid's cache geometry: two virtual cache colors of 1024
// entries each.
const (
	sparc64Colors          = 2
	sparc64EntriesPerColor = 1024
)

// Config describes the kernel to boot.
type Config struct {
	// Platform is one of the Section 6.1 machines.
	Platform arch.Platform
	// Mapper selects sf_buf vs original ephemeral mapping management.
	Mapper MapperKind
	// PhysPages is the physical memory size in pages.  Zero defaults to
	// a comfortable 160 MB; negative is an error.
	PhysPages int
	// Backed selects real page storage (tests) vs cost-only pages
	// (large benchmarks).
	Backed bool
	// CacheEntries sizes the i386 mapping cache; zero means the paper's
	// 64K-entry default.  Ignored on amd64 and sparc64.
	CacheEntries int
	// Cache selects the mapping-cache engine: sharded (default) or the
	// paper's global-lock design.  Ignored on amd64 and by the original
	// kernel, which have no mapping cache.
	Cache CachePolicy
	// Sockets models the machine as that many CPU packages: consecutive
	// CPU-id blocks become sockets, physical frames are homed on sockets
	// by address range, and cross-package lock acquisitions, IPI
	// deliveries, and memory traffic pay the platform's remote
	// multipliers (Counters.RemoteLockAcq / RemoteIPIs /
	// RemoteMemCycles).  The CPU count must divide evenly.  Zero or one
	// keeps the flat machine.
	Sockets int
	// Tiers models the physical memory as that many performance tiers.
	// 2 splits each socket's frame range into a fast low-address prefix
	// (FastFraction of its frames) and a slow remainder — far DRAM, CXL-
	// attached or persistent memory — whose copies, zeroing and checksums
	// pay the platform's SlowMemPerByte surcharge (Counters.SlowMemCycles).
	// Zero or one keeps the uniform pool; negative or more than two is
	// an error.
	Tiers int
	// FastFraction is the fast tier's share of each socket's frames when
	// Tiers is 2; zero means DefaultFastFraction.
	FastFraction float64
	// Disable switches engine features off; the zero value boots every
	// feature the engine supports.
	Disable Feature
}

// validate rejects configurations Boot cannot build.
func (cfg Config) validate() error {
	switch {
	case cfg.Platform.NumCPUs <= 0 || cfg.Platform.NumCPUs > smp.MaxCPUs:
		return fmt.Errorf("kernel: platform %q has %d CPUs, want 1 to %d", cfg.Platform.Name, cfg.Platform.NumCPUs, smp.MaxCPUs)
	case cfg.PhysPages < 0:
		return fmt.Errorf("kernel: PhysPages %d is negative", cfg.PhysPages)
	case cfg.Tiers < 0 || cfg.Tiers > 2:
		return fmt.Errorf("kernel: Tiers %d, want 0, 1 or 2", cfg.Tiers)
	case cfg.Sockets < 0:
		return fmt.Errorf("kernel: Sockets %d is negative", cfg.Sockets)
	case cfg.Sockets > 1 && cfg.Platform.NumCPUs%cfg.Sockets != 0:
		return fmt.Errorf("kernel: %d CPUs do not divide into %d sockets", cfg.Platform.NumCPUs, cfg.Sockets)
	}
	return nil
}

// Kernel is one booted simulated kernel instance.
type Kernel struct {
	Cfg   Config
	M     *smp.Machine
	Pmap  *pmap.Pmap
	Arena *kva.Arena
	Map   sfbuf.Mapper

	// The multi-page mapping paths, resolved once by Boot: runs and
	// adaptive back UseRuns and the consumers' adaptive policy, vectored
	// and vectoredSend back UseVectored and UseVectoredSend.
	runs, adaptive, vectored, vectoredSend bool

	// daemon is the background reclaim-and-laundering worker, nil when
	// disabled or when the engine has no sharded cores.
	daemon *sfbuf.Daemon

	// migrator defragments physical memory by evacuating nearly-free
	// superpage spans; nil when disabled or unsupported by the engine.
	migrator *sfbuf.Migrator

	// tier is the hot-extent placement keeper on a tiered pool (see
	// tier.go); nil when the pool is uniform, hints are off, or the
	// engine cannot migrate.
	tier *TierKeeper

	// consumers is the registry of per-subsystem contiguity-policy
	// handles (see Consumer).
	consumersMu sync.Mutex
	consumers   map[string]*MapConsumer
}

// Boot constructs the machine and the configured mapping implementation,
// deciding once which features the kernel runs.  Every feature needs the
// modern engine — the sf_buf kernel on the sharded cache, or the amd64
// direct map — so the figure engines boot exactly the seed's kernel.
// Features that move frames (reservations, migration, tier hints) also
// need the buddy allocator.
func Boot(cfg Config) (*Kernel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.PhysPages == 0 {
		cfg.PhysPages = 40960 // 160 MB
	}
	on := func(f Feature) bool { return cfg.Disable&f == 0 }
	modern := cfg.Mapper == SFBuf && cfg.Cache != CacheGlobal
	buddy := modern && on(FeatureBuddy)
	sockets := max(cfg.Sockets, 1)
	homed := modern && sockets > 1 && on(FeatureHoming)

	var phys *vm.PhysMem
	if buddy {
		phys = vm.NewBuddyPhysMemNUMA(cfg.PhysPages, cfg.Backed, sockets)
	} else {
		phys = vm.NewPhysMem(cfg.PhysPages, cfg.Backed)
		if sockets > 1 {
			// LIFO pools keep their exact allocation order; the partition
			// only homes frames for SocketOfFrame and remote-memory
			// charging.
			phys.HomeSockets(sockets)
		}
	}
	if cfg.Tiers == 2 {
		// The split must land before anything allocates: on a buddy pool
		// the free-block cover is rebuilt per tier sub-range.  LIFO pools
		// take the split as lookup-only metadata, so slow-tier charging
		// works there too; hinted placement additionally needs the buddy
		// allocator (tier-targeted allocation and migration).
		ff := cfg.FastFraction
		if ff <= 0 {
			ff = DefaultFastFraction
		}
		fast := int(float64(cfg.PhysPages/sockets)*min(ff, 1) + 0.5)
		phys.SetTierSplit(max(fast, 1))
	}
	m := smp.NewMachineWithPhys(cfg.Platform, phys)
	m.SetTopology(sockets)
	pm := pmap.New(m)

	var arena *kva.Arena
	if cfg.Platform.Arch == arch.I386 {
		arena = kva.NewArena(pmap.KVABaseI386, pmap.KVASizeI386)
	} else {
		arena = kva.NewArena(pmap.KVABaseAMD64, pmap.KVASizeAMD64)
	}
	if homed {
		// One arena region per socket: run windows and other window
		// reservations carve address space from their socket's region, so
		// a window's span identifies its home and frees re-coalesce
		// per package.
		arena.SetRegions(sockets)
	}

	k := &Kernel{Cfg: cfg, M: m, Pmap: pm, Arena: arena}
	var err error
	k.Map, err = buildMapper(cfg, m, pm, arena, homed)
	if err != nil {
		return nil, err
	}
	// The original kernel's pmap_qenter range is contiguous and batches,
	// but it is every figure's baseline: it keeps paying per-page
	// translation, and its sends keep allocating one page at a time, as
	// the historical sendfile did.
	k.runs = cfg.Mapper != OriginalKernel && on(FeatureRuns) && sfbuf.NativeRun(k.Map)
	k.adaptive = k.runs && k.mapCapacityPages() > 0
	k.vectored = sfbuf.NativeBatch(k.Map)
	k.vectoredSend = cfg.Mapper != OriginalKernel && k.vectored

	if buddy && on(FeatureReserv) {
		order := 0
		for 1<<order < pmap.SuperpagePages {
			order++
		}
		phys.SetReservation(order, reservLowWater)
	}
	if buddy && on(FeatureMigrate) {
		// NewMigrator answers nil for engines that cannot migrate (amd64,
		// sparc64): the feature then resolves off by itself.
		k.migrator = sfbuf.NewMigrator(k.Map, sfbuf.MigrateConfig{})
	}
	if modern && on(FeatureDaemon) {
		// NewDaemon answers nil for engines without sharded cores (amd64).
		if d := sfbuf.NewDaemon(k.Map, sfbuf.DaemonConfig{Migrator: k.migrator}); d != nil {
			k.daemon = d
			m.RegisterIdleWork(d.Run)
		}
	}
	if buddy && phys.Tiered() && on(FeatureTierHints) {
		// The tier keeper reuses the migration machinery even when
		// defragmentation is off: a dedicated Migrator over the same cache
		// shares the gate discipline, so placement and defragmentation
		// cannot race each other's remaps.
		mig := k.migrator
		if mig == nil {
			mig = sfbuf.NewMigrator(k.Map, sfbuf.MigrateConfig{})
		}
		if mig != nil {
			k.tier = newTierKeeper(k, mig)
		}
	}
	return k, nil
}

func buildMapper(cfg Config, m *smp.Machine, pm *pmap.Pmap, arena *kva.Arena, homed bool) (sfbuf.Mapper, error) {
	if cfg.Mapper == OriginalKernel {
		return sfbuf.NewOriginal(m, pm, arena), nil
	}
	shardCfg := sfbuf.ShardedConfig{Homed: homed}
	switch cfg.Platform.Arch {
	case arch.I386:
		if cfg.Cache == CacheGlobal {
			return sfbuf.NewI386(m, pm, arena, cfg.CacheEntries)
		}
		return sfbuf.NewI386Sharded(m, pm, arena, cfg.CacheEntries, shardCfg)
	case arch.AMD64:
		return sfbuf.NewAMD64(m, pm), nil
	case arch.SPARC64:
		if cfg.Cache == CacheGlobal {
			return sfbuf.NewSparc64(m, pm, arena, sparc64Colors, sparc64EntriesPerColor)
		}
		return sfbuf.NewSparc64Sharded(m, pm, arena, sparc64Colors, sparc64EntriesPerColor, shardCfg)
	}
	return nil, fmt.Errorf("kernel: unknown architecture %v", cfg.Platform.Arch)
}

// MustBoot is Boot for tests and examples where failure is fatal.
func MustBoot(cfg Config) *Kernel {
	k, err := Boot(cfg)
	if err != nil {
		panic(err)
	}
	return k
}

// Ctx returns a kernel thread context on the given CPU.
func (k *Kernel) Ctx(cpu int) *smp.Context { return k.M.Ctx(cpu) }

// UseVectored reports whether multi-page extents (pipe direct windows,
// memory-disk runs) should be mapped through the vectored calls: exactly
// on the native batchers (sharded cache, amd64 direct map, the original
// kernel's pmap_qenter path); the global-lock cache keeps the per-page
// path the paper describes.
func (k *Kernel) UseVectored() bool { return k.vectored }

// UseVectoredSend reports whether the send-side subsystems (sendfile,
// zero-copy socket send) should batch-map their page runs.  It excludes
// the original kernel even though its mapper batches: the historical
// sendfile allocated kernel virtual addresses one page at a time, and the
// evaluation baselines must keep paying exactly that.
func (k *Kernel) UseVectoredSend() bool { return k.vectoredSend }

// UseRuns reports the static contiguity resolution: whether multi-page
// extents should be mapped as contiguous runs when no adaptive state
// applies.  It requires native contiguity and the sf_buf kernel: the
// original kernel is every figure's baseline and must keep its historical
// per-page translation costs even though its 64-bit batch range is
// contiguous, and the global-lock cache has no contiguous path at all.
// FeatureRuns in Config.Disable turns it off everywhere.  Subsystems
// route decisions through a Consumer handle, which under the adaptive
// policy starts from this resolution and then flips itself per observed
// reuse.  Where the decision is false, UseVectored (UseVectoredSend on
// the send side) still decides batches vs pages.
func (k *Kernel) UseRuns() bool { return k.runs }

// mapCapacityPages reports how many mappings the booted engine can hold
// at once: the i386 cache's entry count, the sparc64 hybrid's summed
// per-color entries, or 0 (unbounded) for the amd64 direct map, which
// never evicts.  The adaptive contiguity policy bounds its page-reuse
// recency window by this — a frame last mapped more than a cache-ful of
// observations ago has likely been evicted, so its repeat would miss
// the hash cache anyway.
func (k *Kernel) mapCapacityPages() int {
	switch k.Cfg.Platform.Arch {
	case arch.AMD64:
		return 0
	case arch.SPARC64:
		return sparc64Colors * sparc64EntriesPerColor
	default:
		if k.Cfg.CacheEntries > 0 {
			return k.Cfg.CacheEntries
		}
		return sfbuf.DefaultI386Entries
	}
}

// PhysStats snapshots the physical frame allocator's fragmentation
// picture: free blocks per buddy order, the largest contiguous free
// extent, split/coalesce counts.
func (k *Kernel) PhysStats() vm.PhysStats { return k.M.Phys.PhysStats() }

// PhysContigAlign is the frame-alignment hint for an n-page physically
// contiguous extent on this kernel:
//
//   - Extents that can cover a superpage align to the superpage span, so
//     an aligned run window over them promotes (and on amd64 they fall on
//     the direct map's own 2 MB boundaries).
//   - On sparc64 smaller extents align to the color modulus: the direct
//     map's cache color of page i is then i mod the color count, matching any
//     color-aligned user mapping of the same buffer, so the hybrid keeps
//     its direct-map fast path (Section 4.4) for buddy-allocated pools.
//   - Everything else needs no alignment beyond contiguity itself.
func (k *Kernel) PhysContigAlign(n int) int {
	if n >= pmap.SuperpagePages {
		return pmap.SuperpagePages
	}
	if k.Cfg.Platform.Arch == arch.SPARC64 {
		return sparc64Colors
	}
	return 1
}

// AllocPhysContig allocates n physically contiguous frames with the
// kernel's alignment/color hint applied.  It fails with vm.ErrNoContig on
// LIFO pools and under unrecoverable fragmentation; callers that can use
// scattered pages fall back to AllocN.
//
// With a migrator booted, a contiguity failure over SUFFICIENT total free
// memory triggers one synchronous defragmentation pass — evacuate enough
// nearly-free superpage spans to cover the request — and one retry: the
// on-demand complement to the daemon's ahead-of-demand idle-tick rounds.
func (k *Kernel) AllocPhysContig(n int) ([]*vm.Page, error) {
	pages, err := k.M.Phys.AllocContig(n, k.PhysContigAlign(n))
	if err == nil || k.migrator == nil || !errors.Is(err, vm.ErrNoContig) {
		return pages, err
	}
	if k.M.Phys.FreeFrames() < n {
		return nil, err // genuinely out of memory: migration moves, it does not mint
	}
	span := k.migrator.Span()
	blocks := (n + span - 1) / span
	if k.migrator.MigrateBlocks(k.Ctx(0), blocks) == 0 {
		return nil, err
	}
	return k.M.Phys.AllocContig(n, k.PhysContigAlign(n))
}

// MigrationEnabled reports whether the kernel booted a defragmentation
// migrator.
func (k *Kernel) MigrationEnabled() bool { return k.migrator != nil }

// MigrateNow forces one synchronous defragmentation round on the given
// CPU — up to blocks nearly-free superpage spans evacuated — and returns
// how many fully coalesced.  Zero (and a no-op) without a migrator.  The
// deterministic experiments use it to defragment at controlled points.
func (k *Kernel) MigrateNow(cpu, blocks int) int {
	if k.migrator == nil {
		return 0
	}
	return k.migrator.MigrateBlocks(k.Ctx(cpu), blocks)
}

// MigrationStats snapshots the migrator's counters (zero value when no
// migrator is booted).
func (k *Kernel) MigrationStats() sfbuf.MigrationStats { return k.migrator.Stats() }

// Idle models cpu being idle for dur simulated cycles.  If the background
// daemon is enabled it runs a maintenance pass on that CPU within the
// budget; either way the machine clock advances by at least dur, so
// age-bound laundering sees the lull.  Returns the cycles the daemon
// consumed.
func (k *Kernel) Idle(cpu int, dur cycles.Cycles) cycles.Cycles {
	return k.M.Idle(cpu, dur)
}

// DaemonEnabled reports whether the background reclaim daemon is wired to
// the machine's idle tick.
func (k *Kernel) DaemonEnabled() bool { return k.daemon != nil }

// DaemonStats reports cumulative background-daemon activity (zero value
// when no daemon runs).
func (k *Kernel) DaemonStats() sfbuf.DaemonStats {
	if k.daemon == nil {
		return sfbuf.DaemonStats{}
	}
	return k.daemon.Stats()
}

// Reset zeroes all machine counters and mapper statistics, preparing for a
// measured run.
func (k *Kernel) Reset() {
	k.M.ResetCounters()
	k.Map.ResetStats()
}

// Name describes the booted configuration, e.g. "Xeon-MP/sf_buf".
func (k *Kernel) Name() string {
	return k.Cfg.Platform.Name + "/" + k.Cfg.Mapper.String()
}
