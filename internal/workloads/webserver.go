package workloads

import (
	"fmt"
	"math"
	"math/rand"

	"sfbuf/internal/fs"
	"sfbuf/internal/kernel"
	"sfbuf/internal/memdisk"
	"sfbuf/internal/netstack"
	"sfbuf/internal/sendfile"
	"sfbuf/internal/smp"
)

// Trace is a synthetic web workload standing in for the NASA and Rice
// logs of Section 6.5.2 (the original traces are not distributable): a
// document corpus with a fixed total footprint and a Zipf-popularity
// request sequence over it.
type Trace struct {
	// Name labels the trace ("NASA", "Rice").
	Name string
	// FileSizes holds each document's size in bytes.
	FileSizes []int
	// Requests is the sequence of document indices to serve.
	Requests []int
	// Footprint is the sum of FileSizes.
	Footprint int64
}

// SynthesizeTrace builds a trace with nfiles documents totalling footprint
// bytes and nreq Zipf-distributed requests (exponent s > 1).  Document
// sizes follow a lognormal-like distribution (many small, few large),
// scaled to hit the footprint exactly.
func SynthesizeTrace(name string, footprint int64, nfiles, nreq int, s float64, seed int64) *Trace {
	if nfiles <= 0 || nreq < 0 || footprint < int64(nfiles) {
		panic(fmt.Sprintf("workloads: bad trace parameters %d/%d/%d", footprint, nfiles, nreq))
	}
	rng := rand.New(rand.NewSource(seed))

	// Draw raw sizes from a lognormal shape, then scale to footprint.
	raw := make([]float64, nfiles)
	var sum float64
	for i := range raw {
		v := rng.NormFloat64()*1.0 + 9.2 // median ~ e^9.2 ~ 10 KB before scaling
		raw[i] = math.Exp(v)
		sum += raw[i]
	}
	sizes := make([]int, nfiles)
	var total int64
	for i := range sizes {
		sz := int(float64(footprint) * raw[i] / sum)
		if sz < 64 {
			sz = 64
		}
		sizes[i] = sz
		total += int64(sz)
	}
	// Fix up rounding drift on the largest file.
	largest := 0
	for i, sz := range sizes {
		if sz > sizes[largest] {
			largest = i
		}
	}
	drift := int(footprint - total)
	if sizes[largest]+drift > 0 {
		sizes[largest] += drift
		total += int64(drift)
	}

	// Zipf request sequence: rank 0 most popular.  Popularity rank is a
	// random permutation of documents so size and popularity are
	// uncorrelated, as in real traces.
	perm := rng.Perm(nfiles)
	zipf := rand.NewZipf(rng, s, 1, uint64(nfiles-1))
	reqs := make([]int, nreq)
	for i := range reqs {
		reqs[i] = perm[int(zipf.Uint64())]
	}
	return &Trace{Name: name, FileSizes: sizes, Requests: reqs, Footprint: total}
}

// NASATrace approximates the paper's NASA workload: 258.7 MB footprint.
// The request count is configurable so tests can run small replays.
func NASATrace(nreq int) *Trace {
	return SynthesizeTrace("NASA", 258_700_000, 10000, nreq, 1.2, 1994)
}

// RiceTrace approximates the paper's Rice workload: 1.1 GB footprint.
func RiceTrace(nreq int) *Trace {
	return SynthesizeTrace("Rice", 1_100_000_000, 20000, nreq, 1.15, 2002)
}

// WebConfig parameterizes the web server experiment (Section 6.5.2): "We
// ran an emulation of 30 concurrent clients ... Apache was configured to
// use sendfile(2)."
type WebConfig struct {
	// Workers is the server's worker count; Apache's process pool is
	// modeled as one worker per virtual CPU by default.
	Workers int
	// ChecksumOffload mirrors the NIC configuration (Figures 19-20).
	ChecksumOffload bool
	// MTU of the server's link; 1500 in the evaluation's Gigabit setup.
	MTU int
}

// DefaultWeb returns the evaluation defaults.
func DefaultWeb(k *kernel.Kernel) WebConfig {
	return WebConfig{
		Workers:         k.M.NumCPUs(),
		ChecksumOffload: true,
		MTU:             netstack.MTUSmall,
	}
}

// WebCorpus is a trace's document store: a filesystem populated with the
// trace's files.
type WebCorpus struct {
	FS    *fs.FS
	Disk  *memdisk.Disk
	Names []string
}

// CorpusDiskSize returns the memory-disk size BuildCorpus will allocate
// for a trace: document data plus inode/bitmap/indirect overhead.
// Experiment harnesses use it to size physical memory.
func CorpusDiskSize(trace *Trace) int64 {
	return trace.Footprint + trace.Footprint/8 +
		int64(len(trace.FileSizes))*2*fs.BlockSize + 64*fs.BlockSize
}

// BuildCorpus creates a filesystem sized for the trace and writes every
// document.  This is the experiment's setup phase; it also warms the
// mapping cache the same way installing the document root would.
func BuildCorpus(ctx *smp.Context, k *kernel.Kernel, trace *Trace) (*WebCorpus, error) {
	diskSize := CorpusDiskSize(trace)
	d, err := memdisk.New(k, diskSize)
	if err != nil {
		return nil, fmt.Errorf("workloads: corpus disk: %w", err)
	}
	fsys, err := fs.Mkfs(ctx, k, d, len(trace.FileSizes)+1)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(trace.FileSizes))
	buf := make([]byte, 0)
	for i, sz := range trace.FileSizes {
		if sz > cap(buf) {
			buf = make([]byte, sz)
			for j := range buf {
				buf[j] = byte(j)
			}
		}
		names[i] = fmt.Sprintf("doc%06d.html", i)
		if err := fsys.WriteFile(ctx, names[i], buf[:sz]); err != nil {
			return nil, fmt.Errorf("workloads: writing %s (%d bytes): %w", names[i], sz, err)
		}
	}
	return &WebCorpus{FS: fsys, Disk: d, Names: names}, nil
}

// WebResult reports a replay's outcome.
type WebResult struct {
	Requests    int
	BytesServed int64
}

// WebServer replays the trace's requests against the corpus with a pool
// of workers, each pinned to a CPU and serving over its own client
// connection with sendfile: request r goes to worker r mod Workers.  The
// workers take turns in request order on the calling goroutine, so the
// replay is deterministic.  Elapsed time for throughput is the machine's
// ParallelCycles: the web server is the one workload that exploits
// multiple CPUs (Section 6.2).
func WebServer(k *kernel.Kernel, corpus *WebCorpus, trace *Trace, cfg WebConfig) (WebResult, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = k.M.NumCPUs()
	}
	if cfg.MTU == 0 {
		cfg.MTU = netstack.MTUSmall
	}
	st := netstack.NewStack(k, cfg.MTU)
	st.ChecksumOffload = cfg.ChecksumOffload
	ctx := func(w int) *smp.Context { return k.Ctx(w % k.M.NumCPUs()) }
	conns := make([]*netstack.Conn, cfg.Workers)
	for w := range conns {
		conns[w] = st.NewSinkConn()
		defer conns[w].Close(ctx(w))
	}
	var res WebResult
	for r, doc := range trace.Requests {
		w := r % cfg.Workers
		wctx := ctx(w)
		// Request handling outside data movement: accept, parse, log,
		// socket setup (Apache + kernel).
		wctx.Charge(wctx.Cost().HTTPRequestFixed)
		n, err := sendfile.SendFile(wctx, k, corpus.FS, conns[w], corpus.Names[doc])
		if err != nil {
			return res, fmt.Errorf("worker %d: %w", w, err)
		}
		res.BytesServed += n
		res.Requests++
	}
	return res, nil
}
