package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"sfbuf/internal/arch"
	"sfbuf/internal/fs"
	"sfbuf/internal/kernel"
	"sfbuf/internal/memdisk"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// The postmark workload is the paper's Figure 8-10 transaction mix —
// create or delete, then read or append, in 512-byte units over files of
// 500 B to 9.77 KB — issued round-robin from every simulated CPU against
// a filesystem on a memory disk whose transfers use shared mappings.  The
// file working set is several times the mapping cache, so the cache's
// reuse, reclaim and cross-CPU invalidation economy carries the cost.
// Every read is compared byte for byte with a shadow model of the file.
const (
	pmFiles        = 3000
	pmWarmupTx     = 2000
	pmTransactions = 12000
	pmMinSize      = 500
	pmMaxSize      = 9770
	pmUnit         = 512
	pmDiskBytes    = 64 << 20
	pmCacheEntries = 1024
	// pmPool is the seeded byte pool file contents are cut from; each
	// write takes a slice at its own offset, so files differ byte-wise.
	pmPool = 64 << 10
)

// pmSeg is one write of the shadow model: pool[off:off+n].
type pmSeg struct{ off, n int }

type pmInst struct {
	k    *kernel.Kernel
	d    *memdisk.Disk
	fsys *fs.FS
	rng  *rand.Rand
	pool []byte
	// names is the live file list in creation order (swap-deleted),
	// shadow each file's content as pool segments.
	names  []string
	idx    map[string]int
	shadow map[string][]pmSeg
	next   int
	tx     int
	// buf and want are scratch for reads, reused so the benchmark's own
	// allocations stay out of host_alloc_bytes_per_page.
	buf  []byte
	want []byte
}

func setupPostmark(seed int64, tr *tracer) (instance, error) {
	k, err := kernel.Boot(kernel.Config{
		Platform:     arch.XeonMPHTT(),
		Mapper:       kernel.SFBuf,
		PhysPages:    pmDiskBytes/vm.PageSize + 256,
		Backed:       true,
		CacheEntries: pmCacheEntries,
	})
	if err != nil {
		return nil, err
	}
	in := &pmInst{
		k:      k,
		rng:    rand.New(rand.NewSource(seed)),
		pool:   make([]byte, pmPool+pmMaxSize),
		idx:    make(map[string]int),
		shadow: make(map[string][]pmSeg),
		buf:    make([]byte, pmUnit),
	}
	in.rng.Read(in.pool)

	sp := tr.begin("workloads")
	in.d, err = memdisk.New(k, pmDiskBytes)
	if err == nil {
		in.d.SetPrivateMappings(false)
		in.fsys, err = fs.Mkfs(k.Ctx(0), k, in.d, 2*pmFiles+64)
	}
	for i := 0; err == nil && i < pmFiles; i++ {
		err = in.create(k.Ctx(i%k.M.NumCPUs()), nil)
	}
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("postmark pool: %w", err)
	}
	for t := 0; t < pmWarmupTx; t++ {
		if _, err := in.transaction(nil); err != nil {
			return nil, fmt.Errorf("postmark warmup: %w", err)
		}
	}
	return in, nil
}

func (in *pmInst) kernel() *kernel.Kernel { return in.k }

// seg draws a write: a size in [pmMinSize, pmMaxSize] at a pool offset.
func (in *pmInst) seg() pmSeg {
	return pmSeg{off: in.rng.Intn(pmPool), n: pmMinSize + in.rng.Intn(pmMaxSize-pmMinSize+1)}
}

func (in *pmInst) data(s pmSeg) []byte { return in.pool[s.off : s.off+s.n] }

// create writes a new file; the pool-full path (no space or inodes)
// deletes a random file instead, as PostMark does.
func (in *pmInst) create(ctx *smp.Context, tr *tracer) error {
	s := in.seg()
	name := fmt.Sprintf("pm%07d", in.next)
	in.next++
	sp := tr.begin("fs")
	err := in.fsys.WriteFile(ctx, name, in.data(s))
	tr.end(sp)
	switch {
	case err == nil:
		in.idx[name] = len(in.names)
		in.names = append(in.names, name)
		in.shadow[name] = []pmSeg{s}
		return nil
	case errors.Is(err, fs.ErrNoSpace) || errors.Is(err, fs.ErrNoInodes):
		if len(in.names) == 0 {
			return nil
		}
		return in.delete(ctx, tr)
	}
	return fmt.Errorf("create %s: %w", name, err)
}

func (in *pmInst) delete(ctx *smp.Context, tr *tracer) error {
	victim := in.names[in.rng.Intn(len(in.names))]
	sp := tr.begin("fs")
	err := in.fsys.Delete(ctx, victim)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("delete %s: %w", victim, err)
	}
	i := in.idx[victim]
	last := in.names[len(in.names)-1]
	in.names[i] = last
	in.idx[last] = i
	in.names = in.names[:len(in.names)-1]
	delete(in.idx, victim)
	delete(in.shadow, victim)
	return nil
}

// read streams the file in pmUnit reads, comparing every byte with the
// shadow model.
func (in *pmInst) read(ctx *smp.Context, tr *tracer, name string) (int, error) {
	want := in.want[:0]
	for _, s := range in.shadow[name] {
		want = append(want, in.data(s)...)
	}
	in.want = want
	for off := 0; off < len(want); off += pmUnit {
		c := min(pmUnit, len(want)-off)
		sp := tr.begin("fs")
		err := in.fsys.ReadAt(ctx, name, int64(off), in.buf[:c])
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("read %s at %d: %w", name, off, err)
		}
		if !bytes.Equal(in.buf[:c], want[off:off+c]) {
			return 0, fmt.Errorf("read %s at %d: bytes differ from the last write", name, off)
		}
	}
	return len(want), nil
}

// transaction runs one PostMark transaction on the next CPU in
// round-robin order and returns the payload bytes it moved.
func (in *pmInst) transaction(tr *tracer) (int, error) {
	ctx := in.k.Ctx(in.tx % in.k.M.NumCPUs())
	in.tx++
	moved := 0
	if in.rng.Intn(2) == 0 || len(in.names) == 0 {
		n := len(in.names)
		if err := in.create(ctx, tr); err != nil {
			return 0, err
		}
		if len(in.names) > n {
			moved += in.shadow[in.names[n]][0].n
		}
	} else if err := in.delete(ctx, tr); err != nil {
		return 0, err
	}
	if len(in.names) == 0 {
		return moved, nil
	}
	target := in.names[in.rng.Intn(len(in.names))]
	if in.rng.Intn(2) == 0 {
		n, err := in.read(ctx, tr, target)
		return moved + n, err
	}
	s := in.seg()
	sp := tr.begin("fs")
	err := in.fsys.Append(ctx, target, in.data(s))
	tr.end(sp)
	switch {
	case err == nil:
		in.shadow[target] = append(in.shadow[target], s)
		return moved + s.n, nil
	case errors.Is(err, fs.ErrNoSpace) || errors.Is(err, fs.ErrFileTooBig):
		return moved, nil // full: PostMark counts the attempt and moves on
	}
	return 0, fmt.Errorf("append %s: %w", target, err)
}

// run executes pmTransactions; an op is one transaction, its latency the
// cycles charged to its CPU.  The loop is closed: one transaction at a
// time, each issued when the previous completes.
func (in *pmInst) run(tr *tracer) (*outcome, error) {
	r0, w0 := in.d.Ops()
	out := &outcome{lat: make([]int64, 0, pmTransactions), attempted: pmTransactions}
	var moved int
	for t := 0; t < pmTransactions; t++ {
		cpu := in.k.M.CPU(in.tx % in.k.M.NumCPUs())
		c0 := cpu.Cycles()
		op := tr.beginOp(t)
		n, err := in.transaction(tr)
		tr.endOp(op)
		if err != nil {
			return nil, fmt.Errorf("transaction %d: %w", t, err)
		}
		out.lat = append(out.lat, int64(cpu.Cycles()-c0))
		moved += n
	}
	r1, w1 := in.d.Ops()
	out.pages = float64(moved) / vm.PageSize
	out.layer = map[string]float64{
		"memdisk.ops_per_tx": float64(r1-r0+w1-w0) / pmTransactions,
	}
	return out, nil
}

// check re-reads every live file against the shadow model and runs the
// filesystem's structural check.
func (in *pmInst) check() error {
	ctx := in.k.Ctx(0)
	for _, name := range in.names {
		if _, err := in.read(ctx, nil, name); err != nil {
			return err
		}
	}
	if err := in.fsys.Fsck(ctx); err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	return nil
}
