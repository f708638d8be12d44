package main

import (
	"fmt"

	"sfbuf/internal/experiments"
	"sfbuf/internal/kernel"
	"sfbuf/internal/netstack"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
	"sfbuf/internal/vnet"
	"sfbuf/internal/workloads"
)

// The serve workload re-drives workloads.RunServe from its public pieces
// so that set-up (trace synthesis, corpus build, metadata resolution,
// endpoint wiring) is timed apart from the event loop.  The call order is
// RunServe's, statement for statement: at the canonical constants and
// seed it reproduces experiments.RunServeVariant(adaptive) exactly, which
// TestServeReproducesCanonical pins.

// serveMaxEvents bounds the event loop, as RunServe's default does.
const serveMaxEvents = 50_000_000

type serveInst struct {
	k       *kernel.Kernel
	cfg     workloads.ServeConfig
	net     *vnet.Net
	srv     *netstack.VServer
	conns   []*netstack.VConn
	clients []*netstack.VClient
	windows []*kernel.SendWindow
	churned []bool
	// done counts completed requests per connection, lat their mapping
	// latencies in completion order.
	done []int
	lat  []int64
}

func setupServe(seed int64, tr *tracer) (instance, error) {
	cfg := experiments.ServeCanonicalConfig(experiments.ServeClients, 0)
	cfg.Seed = seed
	k, err := experiments.BootServe(kernel.CacheSharded)
	if err != nil {
		return nil, err
	}
	in := &serveInst{k: k, cfg: cfg}
	ctx0 := k.Ctx(0)

	sp := tr.begin("workloads")
	trace := workloads.SynthesizeTrace("serve", cfg.Footprint, cfg.Files,
		cfg.Clients*cfg.RequestsPerConn, 1.2, cfg.Seed)
	corpus, err := workloads.BuildCorpus(ctx0, k, trace)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	const umPages = 64
	um, err := vm.AllocUserMem(k.M.Phys, umPages*vm.PageSize)
	if err != nil {
		return nil, fmt.Errorf("serve user memory: %w", err)
	}
	filePages := make([][]*vm.Page, len(trace.FileSizes))
	for doc, size := range trace.FileSizes {
		npg := (size + vm.PageSize - 1) / vm.PageSize
		pgs := make([]*vm.Page, npg)
		for pi := 0; pi < npg; pi++ {
			sp := tr.begin("fs")
			pg, err := corpus.FS.FilePage(ctx0, corpus.Names[doc], pi)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("resolving %q page %d: %w", corpus.Names[doc], pi, err)
			}
			pgs[pi] = pg
		}
		filePages[doc] = pgs
	}

	in.net = vnet.New(uint64(cfg.Seed))
	st := netstack.NewStack(k, netstack.MTUSmall)
	in.srv = netstack.NewVServer(st, in.net)
	in.done = make([]int, cfg.Clients)
	ids := make(map[*netstack.VConn]int, cfg.Clients)
	in.srv.OnComplete = func(c *netstack.VConn, r *netstack.VRequest) {
		in.done[ids[c]]++
		in.lat = append(in.lat, r.MapLatency())
	}

	behave := vnet.NewRand(uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 1)
	cons := k.Consumer("vserve")
	ncpu := k.M.NumCPUs()
	for i := 0; i < cfg.Clients; i++ {
		slow := behave.Float64() < cfg.SlowFrac
		churn := behave.Float64() < cfg.ChurnFrac
		bufCap, drain := netstack.DefaultWindow, 32*1024
		if slow {
			bufCap, drain = 8*1024, 2*1024
		}
		var conn *netstack.VConn
		var client *netstack.VClient
		s2c := in.net.NewLink(1000, 5000, func(p vnet.Packet) { client.HandleData(p) })
		s2c.LossPct, s2c.ReorderPct = cfg.LossPct, cfg.ReorderPct
		c2s := in.net.NewLink(1000, 5000, func(p vnet.Packet) { conn.HandleAck(p) })
		c2s.LossPct, c2s.ReorderPct = cfg.LossPct, cfg.ReorderPct

		sw := cons.SendWindow().StartPages(kernel.MinSendWindowPages)
		conn = in.srv.NewVConn(i, k.Ctx(i%ncpu), s2c, sw)
		client = netstack.NewVClient(in.net, i, c2s, bufCap, drain, 20_000)
		ids[conn] = i
		in.conns = append(in.conns, conn)
		in.clients = append(in.clients, client)
		in.windows = append(in.windows, sw)
		in.churned = append(in.churned, churn)

		reqs := make([]*netstack.VRequest, 0, cfg.RequestsPerConn)
		for r := 0; r < cfg.RequestsPerConn; r++ {
			doc := trace.Requests[i*cfg.RequestsPerConn+r]
			size := int64(trace.FileSizes[doc])
			if behave.Float64() < cfg.ZeroCopyFrac {
				need := int((size + vm.PageSize - 1) / vm.PageSize)
				if need > umPages {
					need = umPages
					size = umPages * vm.PageSize
				}
				off := behave.Intn(umPages-need+1) * vm.PageSize
				reqs = append(reqs, &netstack.VRequest{
					Size: size,
					PageAt: func(_ *smp.Context, pi int) (*vm.Page, error) {
						pg, _, err := um.PageAt(off + pi*vm.PageSize)
						return pg, err
					},
				})
			} else {
				pgs := filePages[doc]
				reqs = append(reqs, &netstack.VRequest{
					Size: size,
					PageAt: func(_ *smp.Context, pi int) (*vm.Page, error) {
						return pgs[pi], nil
					},
				})
			}
		}
		start := int64(i) * cfg.StaggerCycles
		c := conn
		in.net.After(start, func() {
			for _, rq := range reqs {
				c.Enqueue(rq)
			}
		})
		if churn {
			at := start + 50_000 + behave.Int63n(1_000_000)
			cc, cl := conn, client
			in.net.After(at, func() { cc.Abort(); cl.Close() })
		}
	}
	return in, nil
}

func (in *serveInst) kernel() *kernel.Kernel { return in.k }

// run drives the event loop to quiescence.  An op is a request; the
// connections' arrivals are open-loop (one every ServeStagger cycles),
// each connection's requests closed-loop behind one another.
func (in *serveInst) run(tr *tracer) (*outcome, error) {
	sp := tr.begin("vnet")
	in.net.RunLimit(serveMaxEvents)
	tr.end(sp)
	if n := in.net.Pending(); n != 0 {
		return nil, fmt.Errorf("serve did not quiesce within %d events (%d pending)", serveMaxEvents, n)
	}
	out := &outcome{lat: in.lat, attempted: in.cfg.Clients * in.cfg.RequestsPerConn}
	var bytes int64
	var windowSum, stalls float64
	for i, c := range in.conns {
		if err := c.Err(); err != nil {
			return nil, fmt.Errorf("serve conn %d: %w", i, err)
		}
		if !in.churned[i] {
			out.failed += in.cfg.RequestsPerConn - in.done[i]
		}
		bytes += in.clients[i].Stats().BytesRecved
		ws := in.windows[i].Stats()
		windowSum += float64(ws.WindowPages)
		stalls += float64(ws.Stalls)
	}
	out.pages = float64(bytes) / vm.PageSize
	ss := in.srv.Stats()
	ns := in.net.Stats()
	out.digest = in.net.TraceHash()
	out.layer = map[string]float64{
		"kernel.sendwindow_mean_pages": windowSum / float64(len(in.windows)),
		"kernel.sendwindow_stalls":     stalls,
		"netstack.stalls_per_request":  ratio(float64(ss.Stalls), float64(out.attempted)),
		"netstack.fallbacks":           float64(ss.Fallbacks),
		"netstack.retransmits_per_mb":  ratio(float64(ss.Retransmits), float64(bytes)/(1<<20)),
		"vnet.events_per_page":         ratio(float64(ns.Events), out.pages),
	}
	return out, nil
}

// check has nothing left to verify: run already failed on any connection
// error and counted incomplete requests.
func (in *serveInst) check() error { return nil }
