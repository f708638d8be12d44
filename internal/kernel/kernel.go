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

// VectoredPolicy decides whether the converted I/O subsystems map
// multi-page extents through the vectored calls (AllocBatch/FreeBatch) or
// page by page.
type VectoredPolicy int

const (
	// VectoredAuto is the default: batch exactly where batching buys
	// something.  Subsystems consult NativeBatch — the sharded cache, the
	// amd64 direct map, and the original kernel's pmap_qenter path take
	// the vectored route; the paper's global-lock cache keeps its
	// historical per-page behaviour, so figure reproduction on
	// CacheGlobal stays byte-identical.
	VectoredAuto VectoredPolicy = iota
	// VectoredOn forces every converted subsystem onto the vectored
	// path, including the loop-fallback engines and the send paths of
	// the original kernel (which never batched historically).
	VectoredOn
	// VectoredOff forces every subsystem onto the per-page path — the
	// ablation knob for measuring what batching is worth.  Note it also
	// strips the original kernel of its pmap_qenter window batching, so
	// figure experiments must leave the policy on Auto.
	VectoredOff
)

// String names the policy for reports.
func (v VectoredPolicy) String() string {
	switch v {
	case VectoredOn:
		return "on"
	case VectoredOff:
		return "off"
	}
	return "auto"
}

// ContigPolicy decides whether the converted I/O subsystems map
// multi-page extents as contiguous runs (AllocRun/FreeRun) — one VA
// window, ranged translation, simulated superpage promotion — rather
// than as scattered batches or pages.
type ContigPolicy int

const (
	// ContigAuto is the default, and on the sf_buf kernel it now
	// resolves to the ADAPTIVE policy wherever the engine provides
	// native contiguity (NativeRun — the sharded cache's reserved
	// windows, the amd64 direct map): each consumer handle starts on
	// the run path (the historical Auto behaviour) and flips itself
	// between runs and batches per window-size epoch from its observed
	// reuse (see MapConsumer).  The paper's global-lock cache and the
	// original kernel keep their historical paths, so every
	// figure-reproduction experiment is untouched: the original kernel
	// is the baseline in each figure and must keep paying per-page
	// translation even though its 64-bit pmap_qenter range is
	// technically contiguous.
	ContigAuto ContigPolicy = iota
	// ContigOn forces every converted subsystem onto the run path,
	// including the fallback engines (which degrade to scattered runs).
	ContigOn
	// ContigOff forces batches/pages everywhere — the ablation knob for
	// measuring what contiguity is worth.
	ContigOff
	// ContigAdaptive names the adaptive per-consumer policy explicitly.
	// It resolves identically to Auto today (Auto's sf_buf resolution IS
	// adaptive); the distinct value exists so configurations can pin the
	// adaptive policy against future changes to Auto's meaning, and so
	// reports can label it.
	ContigAdaptive
)

// String names the policy for reports.
func (c ContigPolicy) String() string {
	switch c {
	case ContigOn:
		return "on"
	case ContigOff:
		return "off"
	case ContigAdaptive:
		return "adaptive"
	}
	return "auto"
}

// PhysPolicy selects the physical-frame allocator behind vm.PhysMem: the
// buddy allocator, whose order-indexed free lists keep physically
// contiguous, aligned extents allocatable after churn (AllocContig,
// promotion-aware AllocN), or the seed's LIFO free stack, on which
// contiguity exists only at boot.
type PhysPolicy int

const (
	// PhysBuddyAuto is the default: the buddy allocator on sf_buf kernels
	// running a native engine (the sharded cache, the amd64 direct map,
	// the sharded sparc64 hybrid), where recovered contiguity feeds
	// superpage promotion and free direct-map windows; the LIFO stack on
	// the original kernel and the paper's global-lock cache, so every
	// deterministic figure-reproduction experiment keeps the seed's
	// bit-exact frame allocation order.
	PhysBuddyAuto PhysPolicy = iota
	// PhysBuddyOn forces the buddy allocator everywhere.
	PhysBuddyOn
	// PhysBuddyOff forces the LIFO stack everywhere (the ablation knob:
	// what churn costs a kernel whose frame allocator cannot coalesce).
	PhysBuddyOff
)

// String names the policy for reports.
func (p PhysPolicy) String() string {
	switch p {
	case PhysBuddyOn:
		return "on"
	case PhysBuddyOff:
		return "off"
	}
	return "auto"
}

// ReservPolicy selects superpage reservation watermarks on the buddy
// allocator: while a socket's stock of intact superpage-span blocks is at
// or below the low watermark, single-page allocation steers into smaller
// blocks and splits a protected block only when nothing smaller exists
// anywhere (an explicitly counted spill).
type ReservPolicy int

const (
	// ReservAuto is the default: watermarks on every buddy-allocator
	// kernel (reservations are meaningless on a LIFO pool, and the
	// figure-reproduction kernels resolve to LIFO, so every deterministic
	// figure experiment is untouched).
	ReservAuto ReservPolicy = iota
	// ReservOn forces the watermarks wherever the buddy allocator runs.
	ReservOn
	// ReservOff disables them — the ablation arm that measures how fast
	// unguarded churn erodes contiguity.
	ReservOff
)

// String names the policy for reports.
func (r ReservPolicy) String() string {
	switch r {
	case ReservOn:
		return "on"
	case ReservOff:
		return "off"
	}
	return "auto"
}

// MigratePolicy selects defragmentation by migration: a Migrator that
// evacuates the few resident pages out of nearly-free superpage spans —
// rewriting their cache and run-window mappings in place, one shootdown
// flush per block — so buddy coalescing recovers the spans as intact
// blocks.  It runs as the background daemon's fourth idle-tick duty and
// as an on-demand pass when AllocPhysContig faces scattered-but-
// sufficient free memory.
type MigratePolicy int

const (
	// MigrateAuto is the default: migration wherever it can work — the
	// sharded i386 engine over a buddy pool (NewMigrator's requirement) —
	// which again excludes every figure-reproduction kernel.
	MigrateAuto MigratePolicy = iota
	// MigrateOn forces it (still nil on engines that cannot migrate).
	MigrateOn
	// MigrateOff disables it — the no-defrag baseline arm.
	MigrateOff
)

// String names the policy for reports.
func (p MigratePolicy) String() string {
	switch p {
	case MigrateOn:
		return "on"
	case MigrateOff:
		return "off"
	}
	return "auto"
}

// TierHintPolicy selects consumer-hinted hot-extent placement on a tiered
// physical pool (Config.Tiers >= 2): the kernel's tier keeper promotes
// extents the per-consumer reuse EWMAs classify as hot into the fast tier
// (migrating their frames and remapping parked windows in place, one
// shootdown flush per pass) and, when a promotion needs room, demotes
// the coldest residents its rate beats by the admission margin.
type TierHintPolicy int

const (
	// TierHintAuto is the default: hinted placement wherever it can work
	// — a tiered pool on an engine that can migrate (the sharded i386
	// cache over the buddy allocator).
	TierHintAuto TierHintPolicy = iota
	// TierHintOn forces hinted placement (still nil on engines that
	// cannot migrate).
	TierHintOn
	// TierHintOff disables placement: the tiers still charge their costs,
	// but frames stay wherever allocation put them — the tier-oblivious
	// baseline arm of the tier experiment.
	TierHintOff
)

// String names the policy for reports.
func (p TierHintPolicy) String() string {
	switch p {
	case TierHintOn:
		return "on"
	case TierHintOff:
		return "off"
	}
	return "auto"
}

// DefaultReservLowWater is the per-socket intact-superpage stock below
// which single-page allocation steers away from protected blocks.
const DefaultReservLowWater = 2

// DefaultFastFraction is the fast tier's default share of each socket's
// frames when Config.Tiers selects a tiered pool without an explicit
// FastFraction.
const DefaultFastFraction = 0.25

// DefaultMigrateBlocksPerTick bounds how many superpage spans one daemon
// idle tick may evacuate.
const DefaultMigrateBlocksPerTick = 1

// HomingPolicy selects how mapping state is placed on a multi-socket
// machine (Config.Sockets > 1).  On a one-socket machine the policy is
// irrelevant: every layout collapses to the flat one.
type HomingPolicy int

const (
	// HomingAuto is the default: socket-homed state whenever the machine
	// has more than one socket and the engine is sharded; flat otherwise.
	HomingAuto HomingPolicy = iota
	// HomingOn forces socket homing (still a no-op at one socket).
	HomingOn
	// HomingOff pins the hash-striped flat layout even on a multi-socket
	// machine — the NUMA experiment's baseline arm: shard homes fall
	// round-robin across packages, clean stock and the overflow pool stay
	// global, and reclaim's hand rotates over every socket's shards, so
	// the workload pays the cross-package costs homing is built to avoid.
	HomingOff
)

// String names the policy for reports.
func (h HomingPolicy) String() string {
	switch h {
	case HomingOn:
		return "homed"
	case HomingOff:
		return "striped"
	}
	return "auto"
}

// Config describes the kernel to boot.
type Config struct {
	// Platform is one of the Section 6.1 machines.
	Platform arch.Platform
	// Mapper selects sf_buf vs original ephemeral mapping management.
	Mapper MapperKind
	// PhysPages is the physical memory size in pages.  Zero defaults to
	// a comfortable 160 MB.
	PhysPages int
	// Backed selects real page storage (tests) vs cost-only pages
	// (large benchmarks).
	Backed bool
	// CacheEntries sizes the i386 mapping cache; zero means the paper's
	// 64K-entry default.  Ignored on amd64.
	CacheEntries int
	// NumColors and EntriesPerColor configure the sparc64 hybrid;
	// zero values take defaults (2 colors, 1024 entries each).
	NumColors       int
	EntriesPerColor int
	// Cache selects the mapping-cache engine: sharded (default) or the
	// paper's global-lock design.  Ignored on amd64 and by the original
	// kernel, which have no mapping cache.
	Cache CachePolicy
	// CacheShards, PerCPUFree and ReclaimBatch tune the sharded engine;
	// zero values derive defaults from the machine and cache size.
	CacheShards  int
	PerCPUFree   int
	ReclaimBatch int
	// ShootdownBatch caps the per-CPU shootdown queue before a flush is
	// forced; zero means smp.DefaultShootdownBatch.
	ShootdownBatch int
	// Vectored selects whether multi-page I/O maps page runs through the
	// vectored AllocBatch/FreeBatch calls; the zero value (Auto) batches
	// exactly where the booted engine makes batching a genuine fast path.
	Vectored VectoredPolicy
	// Contig selects whether multi-page I/O maps extents as contiguous
	// runs (AllocRun/FreeRun).  The zero value (Auto) resolves, on
	// engines with native contiguity, to the ADAPTIVE per-consumer
	// policy — each subsystem's MapConsumer handle flips between runs
	// and batches from its observed reuse, starting on the run path —
	// and to the historical static paths everywhere else.  On/Off force
	// one path for every consumer; Adaptive names Auto's sf_buf
	// resolution explicitly.  Contig takes precedence over Vectored
	// where both would apply.
	Contig ContigPolicy
	// PhysBuddy selects the physical-frame allocator.  The zero value
	// (Auto) boots the buddy allocator exactly where recovered physical
	// contiguity pays (sf_buf kernels on non-figure engines) and keeps
	// the LIFO stack on the figure-reproduction configurations, whose
	// deterministic experiments must stay bit-identical.
	PhysBuddy PhysPolicy
	// ReclaimWatermark configures the background reclaim-and-laundering
	// daemon on engines with sharded cores: the clean-stock low watermark
	// (buffers) the idle-tick pass refills each CPU's freelist and the
	// overflow pool to.  Zero enables the daemon with its derived default
	// (half the per-CPU freelist capacity); negative disables the daemon
	// entirely (reclaim happens only on allocation-miss shortage, the
	// paper's behaviour).  The figure engines (CacheGlobal, the original
	// kernel) never run a daemon regardless.
	ReclaimWatermark int
	// LaunderAge bounds how long a freed run window may stay parked
	// (revivable) before the age-triggered laundering retires it, in
	// simulated cycles.  Zero keeps sfbuf.DefaultLaunderAge; negative
	// disables the age bound (windows launder only by count threshold or
	// arena pressure, the pre-daemon behaviour).
	LaunderAge cycles.Cycles
	// Reserv selects superpage reservation watermarks on the buddy
	// allocator (Auto: on wherever the buddy allocator runs), and
	// ReservLowWater the per-socket protected stock (0 means
	// DefaultReservLowWater).
	Reserv         ReservPolicy
	ReservLowWater int
	// Migrate selects defragmentation by migration (Auto: on wherever the
	// engine can migrate — the sharded i386 cache over a buddy pool).
	// MigrateMaxResident caps how many resident pages a span may hold and
	// still be worth evacuating (0 means a quarter of the superpage span);
	// MigrateBlocksPerTick bounds the daemon's per-idle-tick evacuation
	// budget (0 means DefaultMigrateBlocksPerTick).
	Migrate              MigratePolicy
	MigrateMaxResident   int
	MigrateBlocksPerTick int
	// Tiers models the physical memory as that many performance tiers.
	// 2 splits each socket's frame range into a fast low-address prefix
	// (FastFraction of its frames) and a slow remainder — far DRAM, CXL-
	// attached or persistent memory — whose copies, zeroing and checksums
	// pay the platform's SlowMemPerByte surcharge (Counters.SlowMemCycles).
	// Zero or one keeps the uniform pool: every existing configuration,
	// including the figure-reproduction kernels, is bit-identical.
	Tiers int
	// FastFraction is the fast tier's share of each socket's frames when
	// Tiers >= 2; zero means DefaultFastFraction.
	FastFraction float64
	// TierHints selects consumer-hinted hot-extent placement on the
	// tiered pool (Auto: on wherever the engine can migrate).  Off leaves
	// frames where allocation put them — the tier-oblivious baseline.
	TierHints TierHintPolicy
	// Sockets models the machine as that many CPU packages: consecutive
	// CPU-id blocks become sockets, physical frames are homed on sockets
	// by address range, and cross-package lock acquisitions, IPI
	// deliveries, and memory traffic pay the platform's remote
	// multipliers (Counters.RemoteLockAcq / RemoteIPIs /
	// RemoteMemCycles).  The CPU count must divide evenly.  Zero or one
	// keeps the flat machine: every existing configuration, including the
	// figure-reproduction kernels, is bit-identical.
	Sockets int
	// Homing places the mapping state on a multi-socket machine: Auto
	// homes state per socket whenever Sockets > 1 (shards striped within
	// the frame's home socket, per-CPU freelists and pool sub-stocks per
	// package, run windows and KVA from socket-local regions, the daemon
	// refilling from its own socket); Off pins the flat hash-striped
	// layout as the NUMA baseline arm.  Ignored at Sockets <= 1.
	Homing HomingPolicy
}

// UsesBuddyPhys reports the config's resolved frame-allocator choice.
func (cfg Config) UsesBuddyPhys() bool {
	switch cfg.PhysBuddy {
	case PhysBuddyOn:
		return true
	case PhysBuddyOff:
		return false
	}
	return cfg.Mapper == SFBuf && cfg.Cache != CacheGlobal
}

// UsesReservation reports the config's resolved reservation choice.  The
// watermarks live in the buddy allocator, so they require it regardless
// of policy.
func (cfg Config) UsesReservation() bool {
	if !cfg.UsesBuddyPhys() {
		return false
	}
	return cfg.Reserv != ReservOff
}

// UsesMigration reports the config's resolved defragmentation choice.
// Like the reservation, migration requires the buddy allocator; it
// additionally requires an engine that can migrate, which Boot discovers
// by whether sfbuf.NewMigrator accepts the mapper.
func (cfg Config) UsesMigration() bool {
	if !cfg.UsesBuddyPhys() {
		return false
	}
	return cfg.Migrate != MigrateOff
}

// UsesTiering reports whether the config boots a tiered physical pool.
func (cfg Config) UsesTiering() bool { return cfg.Tiers >= 2 }

// UsesTierHints reports the config's resolved hot-extent placement
// choice.  Placement moves frames with the migration machinery, so —
// like defragmentation — it additionally requires an engine that can
// migrate, which Boot discovers via sfbuf.NewMigrator.
func (cfg Config) UsesTierHints() bool {
	if !cfg.UsesTiering() || !cfg.UsesBuddyPhys() {
		return false
	}
	return cfg.TierHints != TierHintOff
}

// sockets returns the configured socket count, clamped to at least 1.
func (cfg Config) sockets() int {
	if cfg.Sockets < 1 {
		return 1
	}
	return cfg.Sockets
}

// UsesHoming reports the config's resolved state-placement choice: true
// when a multi-socket machine homes its mapping state per package.
func (cfg Config) UsesHoming() bool {
	if cfg.sockets() <= 1 || cfg.Homing == HomingOff {
		return false
	}
	return cfg.Mapper == SFBuf && cfg.Cache != CacheGlobal
}

// Kernel is one booted simulated kernel instance.
type Kernel struct {
	Cfg   Config
	M     *smp.Machine
	Pmap  *pmap.Pmap
	Arena *kva.Arena
	Map   sfbuf.Mapper

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

// Boot constructs the machine and the configured mapping implementation.
func Boot(cfg Config) (*Kernel, error) {
	if cfg.PhysPages == 0 {
		cfg.PhysPages = 40960 // 160 MB
	}
	sockets := cfg.sockets()
	var phys *vm.PhysMem
	if cfg.UsesBuddyPhys() {
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
	if cfg.UsesTiering() {
		// The split must land before anything allocates: on a buddy pool
		// the free-block cover is rebuilt per tier sub-range.  LIFO pools
		// take the split as lookup-only metadata, so slow-tier charging
		// works there too; hinted placement additionally needs the buddy
		// allocator (tier-targeted allocation and migration).
		per := cfg.PhysPages / sockets
		ff := cfg.FastFraction
		if ff <= 0 {
			ff = DefaultFastFraction
		}
		if ff > 1 {
			ff = 1
		}
		fast := int(float64(per)*ff + 0.5)
		if fast < 1 {
			fast = 1
		}
		phys.SetTierSplit(fast)
	}
	m := smp.NewMachineWithPhys(cfg.Platform, phys)
	m.SetTopology(sockets)
	if cfg.ShootdownBatch > 0 {
		m.SetShootdownBatch(cfg.ShootdownBatch)
	}
	pm := pmap.New(m)

	var arena *kva.Arena
	if cfg.Platform.Arch == arch.I386 {
		arena = kva.NewArena(pmap.KVABaseI386, pmap.KVASizeI386)
	} else {
		arena = kva.NewArena(pmap.KVABaseAMD64, pmap.KVASizeAMD64)
	}
	if cfg.UsesHoming() {
		// One arena region per socket: run windows and other window
		// reservations carve address space from their socket's region, so
		// a window's span identifies its home and frees re-coalesce
		// per package.
		arena.SetRegions(sockets)
	}

	k := &Kernel{Cfg: cfg, M: m, Pmap: pm, Arena: arena}
	var err error
	k.Map, err = buildMapper(cfg, m, pm, arena)
	if err != nil {
		return nil, err
	}
	if cfg.UsesReservation() {
		low := cfg.ReservLowWater
		if low <= 0 {
			low = DefaultReservLowWater
		}
		order := 0
		for 1<<order < pmap.SuperpagePages {
			order++
		}
		phys.SetReservation(order, low)
	}
	if cfg.UsesMigration() {
		// NewMigrator answers nil for engines that cannot migrate (the
		// global-lock cache, amd64, sparc64, LIFO pools) — the knob then
		// resolves off by itself.
		k.migrator = sfbuf.NewMigrator(k.Map, sfbuf.MigrateConfig{
			MaxResident: cfg.MigrateMaxResident,
		})
	}
	// Background reclaim/laundering rides the idle tick on engines with
	// sharded cores.  The figure engines never get a daemon (NewDaemon
	// returns nil for them), and their experiments never call Idle, so
	// figure reproduction stays bit-identical.
	if cfg.Mapper == SFBuf && cfg.Cache != CacheGlobal {
		if cfg.LaunderAge != 0 {
			age := cfg.LaunderAge
			if age < 0 {
				age = 0
			}
			sfbuf.SetLaunderAge(k.Map, age)
		}
		if cfg.ReclaimWatermark >= 0 {
			if d := sfbuf.NewDaemon(k.Map, sfbuf.DaemonConfig{Watermark: cfg.ReclaimWatermark}); d != nil {
				k.daemon = d
				if k.migrator != nil {
					blocks := cfg.MigrateBlocksPerTick
					if blocks <= 0 {
						blocks = DefaultMigrateBlocksPerTick
					}
					d.SetMigrator(k.migrator, blocks)
				}
				m.RegisterIdleWork(d.Run)
			}
		}
	}
	if cfg.UsesTierHints() && phys.Tiered() {
		// The tier keeper reuses the migration machinery even when the
		// defrag knob is off: a dedicated Migrator over the same cache
		// shares the gate discipline, so placement and defragmentation
		// cannot race each other's remaps.
		mig := k.migrator
		if mig == nil {
			mig = sfbuf.NewMigrator(k.Map, sfbuf.MigrateConfig{
				MaxResident: cfg.MigrateMaxResident,
			})
		}
		if mig != nil {
			k.tier = newTierKeeper(k, mig)
		}
	}
	return k, nil
}

func buildMapper(cfg Config, m *smp.Machine, pm *pmap.Pmap, arena *kva.Arena) (sfbuf.Mapper, error) {
	if cfg.Mapper == OriginalKernel {
		return sfbuf.NewOriginal(m, pm, arena), nil
	}
	shardCfg := sfbuf.ShardedConfig{
		Shards:       cfg.CacheShards,
		PerCPUFree:   cfg.PerCPUFree,
		ReclaimBatch: cfg.ReclaimBatch,
		Homed:        cfg.UsesHoming(),
	}
	switch cfg.Platform.Arch {
	case arch.I386:
		if cfg.Cache == CacheGlobal {
			return sfbuf.NewI386(m, pm, arena, cfg.CacheEntries)
		}
		return sfbuf.NewI386Sharded(m, pm, arena, cfg.CacheEntries, shardCfg)
	case arch.AMD64:
		return sfbuf.NewAMD64(m, pm), nil
	case arch.SPARC64:
		nc := cfg.NumColors
		if nc == 0 {
			nc = 2
		}
		if cfg.Cache == CacheGlobal {
			return sfbuf.NewSparc64(m, pm, arena, nc, cfg.EntriesPerColor)
		}
		return sfbuf.NewSparc64Sharded(m, pm, arena, nc, cfg.EntriesPerColor, shardCfg)
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
// memory-disk runs) should be mapped through the vectored calls.  Auto
// follows the engine: native batchers (sharded cache, amd64 direct map,
// the original kernel's pmap_qenter path) batch; the global-lock cache
// keeps the per-page path the paper describes.
func (k *Kernel) UseVectored() bool {
	switch k.Cfg.Vectored {
	case VectoredOn:
		return true
	case VectoredOff:
		return false
	}
	return sfbuf.NativeBatch(k.Map)
}

// UseVectoredSend reports whether the send-side subsystems (sendfile,
// zero-copy socket send) should batch-map their page runs.  Auto excludes
// the original kernel even though its mapper batches: the historical
// sendfile allocated kernel virtual addresses one page at a time, and the
// evaluation baselines must keep paying exactly that.  VectoredOn forces
// batching everywhere.
func (k *Kernel) UseVectoredSend() bool {
	switch k.Cfg.Vectored {
	case VectoredOn:
		return true
	case VectoredOff:
		return false
	}
	return k.Cfg.Mapper != OriginalKernel && sfbuf.NativeBatch(k.Map)
}

// UseRuns reports the STATIC contiguity resolution: whether multi-page
// extents should be mapped as contiguous runs when no adaptive state
// applies.  Auto and Adaptive both require native contiguity AND the
// sf_buf kernel: the original kernel is every figure's baseline and
// must keep its historical per-page translation costs even though its
// 64-bit batch range is contiguous, and the global-lock cache has no
// contiguous path at all.  Subsystems no longer call this directly —
// they route decisions through a Consumer handle, which under the
// adaptive policy starts from this resolution and then flips itself per
// observed reuse.  Where the decision is false, UseVectored still
// decides batches vs pages.
func (k *Kernel) UseRuns() bool {
	switch k.Cfg.Contig {
	case ContigOn:
		return true
	case ContigOff:
		return false
	}
	return k.Cfg.Mapper != OriginalKernel && sfbuf.NativeRun(k.Map)
}

// UseRunsSend is UseRuns for the send-side subsystems (sendfile,
// zero-copy socket send).  Unlike the UseVectored/UseVectoredSend pair —
// whose Auto rules genuinely differ because the original kernel batches
// windows but never batched sends — the run rule is identical on both
// sides (Auto already excludes the original kernel everywhere), so this
// simply delegates; the separate name keeps the send-path call sites
// symmetric with the vectored policy.
func (k *Kernel) UseRunsSend() bool { return k.UseRuns() }

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
		nc := k.Cfg.NumColors
		if nc == 0 {
			nc = 2
		}
		epc := k.Cfg.EntriesPerColor
		if epc == 0 {
			epc = 1024
		}
		return nc * epc
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
//     map's cache color of page i is then i mod NumColors, matching any
//     color-aligned user mapping of the same buffer, so the hybrid keeps
//     its direct-map fast path (Section 4.4) for buddy-allocated pools.
//   - Everything else needs no alignment beyond contiguity itself.
func (k *Kernel) PhysContigAlign(n int) int {
	if n >= pmap.SuperpagePages {
		return pmap.SuperpagePages
	}
	if k.Cfg.Platform.Arch == arch.SPARC64 {
		if nc := k.Cfg.NumColors; nc > 1 {
			return nc
		}
		return 2
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
