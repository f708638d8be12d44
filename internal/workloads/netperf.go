package workloads

import (
	"fmt"

	"sfbuf/internal/kernel"
	"sfbuf/internal/netstack"
	"sfbuf/internal/vm"
)

// NetperfConfig parameterizes the netperf experiment (Section 6.5.1):
// "examines the throughput achieved between a netperf client and server on
// the same machine.  TCP socket send and receive buffer sizes are set to
// 64 KB ... Sockets are configured to use zero copy send."
type NetperfConfig struct {
	// MTU is 1500 (small) or 16K (large) in the paper.
	MTU int
	// SendSize per send call; 64 KB, matching the socket buffers.
	SendSize int
	// TotalBytes to move.
	TotalBytes int64
	// SenderCPU and ReceiverCPU pin the two processes.
	SenderCPU, ReceiverCPU int
	// ChecksumOffload mirrors the NIC configuration.
	ChecksumOffload bool
}

// DefaultNetperf returns the paper's parameters for the given MTU.
func DefaultNetperf(k *kernel.Kernel, mtu int) NetperfConfig {
	return NetperfConfig{
		MTU:         mtu,
		SendSize:    64 << 10,
		TotalBytes:  64 << 20,
		SenderCPU:   0,
		ReceiverCPU: k.M.NumCPUs() - 1,
	}
}

// Netperf moves TotalBytes through a loopback connection with zero-copy
// sends and returns the bytes received.  Sender and receiver take turns
// on the calling goroutine: each send of one block is drained by the
// receiver before the next, so the run is deterministic.  A block must
// therefore fit the connection's window.
func Netperf(k *kernel.Kernel, cfg NetperfConfig) (int64, error) {
	if cfg.MTU <= netstack.HeaderSize || cfg.SendSize <= 0 || cfg.SendSize > netstack.DefaultWindow || cfg.TotalBytes <= 0 {
		return 0, fmt.Errorf("workloads: invalid netperf config %+v", cfg)
	}
	st := netstack.NewStack(k, cfg.MTU)
	st.ChecksumOffload = cfg.ChecksumOffload
	c := st.NewConn()

	sctx := k.Ctx(cfg.SenderCPU)
	rctx := k.Ctx(cfg.ReceiverCPU)

	um, err := vm.AllocUserMem(k.M.Phys, cfg.SendSize)
	if err != nil {
		return 0, err
	}
	defer um.Release()

	var moved int64
	buf := make([]byte, 64<<10)
	for i := int64(0); i < cfg.TotalBytes/int64(cfg.SendSize); i++ {
		if err := c.SendZeroCopy(sctx, um, 0, cfg.SendSize); err != nil {
			return moved, err
		}
		for want := moved + int64(cfg.SendSize); moved < want; {
			n, err := c.Recv(rctx, buf)
			if err != nil {
				return moved, err
			}
			moved += int64(n)
		}
	}
	c.Close(sctx)
	return moved, nil
}
