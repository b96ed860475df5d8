// Package topology builds wafer-scale network topologies on top of the
// flow-level simulator: the baseline 2D mesh of prior wafer-scale
// prototypes, and the FRED hierarchical switch fabric. Both expose a
// common Wafer interface used by the collective algorithms and the
// training simulator: NPU-to-NPU routes, I/O-controller load/store
// trees for weight streaming, and capacity summaries.
package topology

import (
	"strconv"

	"github.com/wafernet/fred/internal/netsim"
)

// namer builds node and link names from literal parts and integers in
// one reused buffer, so each finished name is a single allocation
// (fmt.Sprintf would box every argument and render through
// reflection):
//
//	nm.s("l1.").i(i).s("->l2").done() == fmt.Sprintf("l1.%d->l2", i)
type namer []byte

func (b *namer) s(lit string) *namer {
	*b = append(*b, lit...)
	return b
}

func (b *namer) i(v int) *namer {
	*b = strconv.AppendInt(*b, int64(v), 10)
	return b
}

// done returns the built name and empties the buffer for the next.
func (b *namer) done() string {
	name := string(*b)
	*b = (*b)[:0]
	return name
}

// Wafer is a wafer-scale interconnect instance: a set of NPUs and I/O
// controllers embedded in a netsim.Network.
type Wafer interface {
	// Name identifies the topology (e.g. "mesh-5x4", "fred").
	Name() string
	// Network returns the underlying flow-level network.
	Network() *netsim.Network
	// NPUCount returns the number of NPUs on the wafer.
	NPUCount() int
	// IOCCount returns the number of I/O controllers.
	IOCCount() int
	// Route returns the directed links of the unicast route from NPU
	// src to NPU dst (the topology's canonical routing: X-Y on the
	// mesh, up-down through the switch tree on FRED).
	Route(src, dst int) []netsim.LinkID
	// IOCLoadTree returns the directed links of the broadcast tree
	// that streams data from I/O controller ioc to every NPU (weight
	// streaming load direction, Figure 4(A)).
	IOCLoadTree(ioc int) []netsim.LinkID
	// IOCStoreTree returns the directed links of the reduction tree
	// that drains data from every NPU into I/O controller ioc (the
	// reverse of Figure 4(A), used to stream reduced gradients out).
	IOCStoreTree(ioc int) []netsim.LinkID
	// IOCToNPU returns the route from an I/O controller to one NPU
	// (input minibatch loading).
	IOCToNPU(ioc, npu int) []netsim.LinkID
	// NPUToIOC returns the route from one NPU to an I/O controller.
	NPUToIOC(npu, ioc int) []netsim.LinkID
	// NearestIOC returns the I/O controller serving the given NPU for
	// input loading (NPUs are spread across controllers).
	NearestIOC(npu int) int
	// BisectionBW returns the one-direction bisection bandwidth in
	// bytes/second.
	BisectionBW() float64
	// NPUPortBW returns the per-NPU one-direction injection bandwidth.
	NPUPortBW() float64
	// IOCBW returns the per-controller one-direction bandwidth.
	IOCBW() float64
}

// TotalIOCBW returns the aggregate one-direction I/O bandwidth of a
// wafer.
func TotalIOCBW(w Wafer) float64 {
	return float64(w.IOCCount()) * w.IOCBW()
}
