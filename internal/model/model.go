// Package model holds the calibrated cost parameters of the simulated
// hardware and software stacks.
//
// The reproduction substitutes a discrete-event simulation for the paper's
// testbed (two 4-core Xeon v2 hosts, Mellanox MT27520 RoCE NICs, 10 Gbps
// full-duplex Ethernet, OFED 4.0-2, Java/DiSNI). Every constant below names
// a cost component the paper's argument depends on: TCP pays syscalls,
// intermediate copies and per-segment kernel processing on the host CPU,
// while RDMA pays much smaller doorbell/completion costs and moves payload
// bytes on the NIC's DMA engines instead of the CPU.
//
// Absolute values are loosely matched to the magnitudes in the paper's
// Figures 3 and 4 (hundreds of microseconds round-trip); the reproduction
// target is the relative behaviour — orderings, win factors and the ~16 KB
// crossover — which is asserted by calibration tests in internal/bench.
package model

import "rubin/internal/sim"

// LinkParams describes one full-duplex link of the fabric.
type LinkParams struct {
	// BandwidthBytesPerSec is the line rate of each direction.
	BandwidthBytesPerSec int64
	// Propagation is the one-way propagation plus switching delay.
	Propagation sim.Time
	// MTU is the maximum frame payload; larger sends are segmented for
	// per-segment cost accounting (the link itself serializes total bytes).
	MTU int
	// FrameOverheadBytes is added to every frame on the wire (headers).
	FrameOverheadBytes int
}

// SerializeTime returns the wire serialization time for a payload of the
// given size including per-frame header overhead.
func (lp LinkParams) SerializeTime(payload int) sim.Time {
	frames := (payload + lp.MTU - 1) / lp.MTU
	if frames < 1 {
		frames = 1
	}
	bytes := int64(payload + frames*lp.FrameOverheadBytes)
	return sim.Time(bytes * int64(sim.Second) / lp.BandwidthBytesPerSec)
}

// Frames returns the number of MTU-sized frames a payload occupies.
func (lp LinkParams) Frames(payload int) int {
	f := (payload + lp.MTU - 1) / lp.MTU
	if f < 1 {
		f = 1
	}
	return f
}

// HostParams describes a simulated host.
type HostParams struct {
	// Cores is the number of CPU cores (parallel servers of the CPU
	// resource). The paper's machines have 4-core Xeon v2 CPUs.
	Cores int
	// NICEngines is the number of parallel processing engines on the
	// RDMA NIC (DMA/WR pipelines).
	NICEngines int
}

// TCPParams is the cost model of the simulated kernel TCP/IP stack plus the
// Java-style socket layer above it. All CPU costs are charged to the host
// CPU resource; this is precisely the overhead RDMA avoids.
type TCPParams struct {
	// SendSyscall is the fixed cost of a write/send system call,
	// including user/kernel crossing and socket bookkeeping.
	SendSyscall sim.Time
	// RecvSyscall is the fixed cost of a read/recv system call.
	RecvSyscall sim.Time
	// CopyPerKB is the user<->kernel buffer copy cost per KB, charged
	// once on the send path and once on the receive path.
	CopyPerKB sim.Time
	// SegmentProc is the kernel protocol processing cost per MTU segment
	// (header build/parse, checksum, ACK clocking), charged on both ends.
	SegmentProc sim.Time
	// Interrupt is the per-arrival interrupt plus softirq entry cost.
	Interrupt sim.Time
	// Wakeup is the scheduler latency to wake a blocked reader or
	// selector after data becomes readable.
	Wakeup sim.Time
	// MsgHandle is the per-message framing/deframing and handler
	// dispatch cost of the byte-stream transport above the socket,
	// charged once per transport message: a msgnet bundle of several
	// protocol messages pays it once.
	MsgHandle sim.Time
	// SocketBuffer is the size of the send and receive socket buffers;
	// writers stall when the in-flight window reaches this many bytes.
	SocketBuffer int
}

// RDMAParams is the cost model of the simulated RDMA verbs stack (RoCE
// RNIC + user-space verbs library, jVerbs/DiSNI flavored).
type RDMAParams struct {
	// PostWR is the CPU cost to build one work request and ring the
	// doorbell when posted individually.
	PostWR sim.Time
	// PostWRBatched is the marginal CPU cost per WR when several WRs are
	// posted with a single doorbell (the paper's batched posting).
	PostWRBatched sim.Time
	// NICProcess is the NIC engine cost to process one WR or incoming
	// frame (descriptor fetch, QP state update).
	NICProcess sim.Time
	// DMAPerKB is the NIC DMA engine cost per KB to read or write host
	// memory (charged on the NIC engine, not the CPU — the zero-copy
	// advantage).
	DMAPerKB sim.Time
	// InlineMax is the largest payload that can be sent inline in the
	// WR itself, skipping the DMA read on the send side.
	InlineMax int
	// InlineSave is the NIC-side saving for an inline send.
	InlineSave sim.Time
	// CQEGenerate is the NIC cost to produce a completion entry.
	CQEGenerate sim.Time
	// CQPoll is the CPU cost of one completion-queue poll that finds at
	// least one entry.
	CQPoll sim.Time
	// CompletionHandle is the CPU cost to process one *signaled*
	// completion through the event channel (the cost selective
	// signaling amortizes).
	CompletionHandle sim.Time
	// RecvWRRefill is the CPU cost to re-post one receive WR.
	RecvWRRefill sim.Time
	// MemRegisterBase and MemRegisterPerKB model ibv_reg_mr: pinning
	// pages and programming the NIC's translation tables. Registration
	// is expensive, which is why buffer pools are pre-registered.
	MemRegisterBase  sim.Time
	MemRegisterPerKB sim.Time
	// RNRRetry is how many times a send is retried after a
	// receiver-not-ready NAK before completing with an error. Following
	// InfiniBand semantics, the value 7 means retry forever.
	RNRRetry int
	// RNRDelay is the backoff before each RNR retry.
	RNRDelay sim.Time
}

// SelectorParams models the event-demultiplexing layers of Figure 4.
type SelectorParams struct {
	// NIODispatch is the per-readiness-event cost of the epoll-backed
	// Java NIO selector (highly optimized, per the paper).
	NIODispatch sim.Time
	// RubinDispatch is the per-event cost of RUBIN's hybrid event queue
	// plus event manager (the paper notes its select() is slower than
	// NIO's and native code is future work).
	RubinDispatch sim.Time
	// CopyPerKB is the cost of copying received payload from the
	// registered receive buffer into the application buffer — RUBIN's
	// known receive-side copy (paper Section IV). Zero projects the
	// zero-copy receive the paper plans.
	CopyPerKB sim.Time
	// MsgHandle is the per-message handling cost of the
	// message-oriented RUBIN transport (no deframing needed, cheaper
	// than the byte-stream path), charged once per transport message: a
	// msgnet bundle of several protocol messages pays it once.
	MsgHandle sim.Time
	// CQEvent is the per-notification cost of RUBIN's event manager
	// reading a completion event, charged on the selector's thread in place
	// of RDMAParams.CompletionHandle (the heavy application wakeup is the
	// RubinDispatch charged separately).
	CQEvent sim.Time
}

// CryptoParams models message-authentication CPU costs (Reptor protects
// replica messages with HMACs; paper Section III-C).
type CryptoParams struct {
	// HMACBase and HMACPerKB cost one HMAC computation or verification.
	HMACBase  sim.Time
	HMACPerKB sim.Time
	// DigestBase and DigestPerKB cost one message digest.
	DigestBase  sim.Time
	DigestPerKB sim.Time
}

// ProtocolParams models the agreement-protocol bookkeeping CPU costs that
// sit outside the transport and crypto stacks — the Java-flavored request
// validation, proposal marshalling and reply construction the Reptor
// leader pays for every request it orders. Every replica pays
// ExecRequest, but only the leader pays OrderRequest/OrderPerKB for the
// whole offered load: the single-leader cost COP's K parallel leaders
// (Behl et al., Middleware '15) are designed to spread. The leader charges
// OrderCost once per request it admits, as one CPU job started at
// admission, and a proposal leaves only once all of its requests' jobs are
// done.
type ProtocolParams struct {
	// OrderRequest is the leader-side fixed CPU cost to validate, enqueue
	// and assign one client request into a proposal.
	OrderRequest sim.Time
	// OrderPerKB is the additional leader-side marshalling cost per KB of
	// proposal. A proposal names each request by a 44-byte ref (client,
	// timestamp, digest), so this is per KB of refs, not of payload.
	OrderPerKB sim.Time
	// ExecRequest is the per-request execution/reply bookkeeping cost
	// every replica pays at execution time.
	ExecRequest sim.Time
}

// OrderCost returns the leader CPU cost to order one request that takes
// size bytes of a proposal.
func (pp ProtocolParams) OrderCost(size int) sim.Time {
	return pp.OrderRequest + KB(pp.OrderPerKB, size)
}

// The kinds of charge, one per cost above, named where the cost is charged
// (sim.Resource.Acquire): a resource keeps one busy total per kind, so a
// ledger reads where each cost landed without asking who charged it.
const (
	// Wire is a link direction serializing a frame (LinkParams).
	Wire sim.Kind = iota
	// SocketWrite is one write() call: TCPParams.SendSyscall, the copy
	// into the kernel (CopyPerKB) and the segments it builds (SegmentProc).
	SocketWrite
	// SocketRead is one read() call: TCPParams.RecvSyscall and the copy
	// out of the kernel (CopyPerKB).
	SocketRead
	// Interrupt is TCPParams.Interrupt, once per burst of arrivals.
	Interrupt
	// Segment is TCPParams.SegmentProc for one received segment.
	Segment
	// Wakeup is TCPParams.Wakeup, a blocked reader made runnable.
	Wakeup
	// Post is a verbs post: RDMAParams.PostWR and PostWRBatched for
	// sends, RecvWRRefill for receives.
	Post
	// Completion is completion work: RDMAParams.CQEGenerate on the NIC;
	// CQPoll, CompletionHandle and SelectorParams.CQEvent on a thread.
	Completion
	// DMA is NIC engine work on one WR or frame: RDMAParams.NICProcess
	// (less InlineSave) and DMAPerKB.
	DMA
	// Dispatch is one select turn: SelectorParams.NIODispatch or
	// RubinDispatch.
	Dispatch
	// RecvCopy is RUBIN's receive copy, SelectorParams.CopyPerKB.
	RecvCopy
	// MsgHandle is one transport message handled: TCPParams.MsgHandle or
	// SelectorParams.MsgHandle.
	MsgHandle
	// MAC is CryptoParams.HMACBase and HMACPerKB: a MAC, an authenticator
	// or a verification.
	MAC
	// Digest is CryptoParams.DigestBase and DigestPerKB.
	Digest
	// Order is ProtocolParams.OrderCost, the leader ordering one request.
	Order
	// Execute is ProtocolParams.ExecRequest.
	Execute
	// ConnSetup is a connection's set-up call: a TCP dial's
	// TCPParams.SendSyscall, or rdma_cm's, which costs the same.
	ConnSetup
	// MRSetup is RDMAParams.MemRegisterBase and MemRegisterPerKB.
	MRSetup

	kinds
)

// A sim.Resource tells sim.Kinds kinds apart: this fails to compile when
// the kinds outgrow it.
var _ [sim.Kinds - kinds]struct{}

// KindNames names each kind, in a ledger's rows.
var KindNames = [kinds]string{
	Wire:        "wire",
	SocketWrite: "socket write",
	SocketRead:  "socket read",
	Interrupt:   "interrupt",
	Segment:     "segment",
	Wakeup:      "wakeup",
	Post:        "verbs post",
	Completion:  "completion",
	DMA:         "DMA",
	Dispatch:    "select dispatch",
	RecvCopy:    "receive copy",
	MsgHandle:   "MsgHandle",
	MAC:         "MAC",
	Digest:      "digest",
	Order:       "order",
	Execute:     "execute",
	ConnSetup:   "connection set-up",
	MRSetup:     "MR set-up",
}

// Params aggregates the full cluster model.
type Params struct {
	Link     LinkParams
	Host     HostParams
	TCP      TCPParams
	RDMA     RDMAParams
	Selector SelectorParams
	Crypto   CryptoParams
	Protocol ProtocolParams
}

// Default returns the calibrated parameter set used by all experiments.
// The values reproduce the relative results of the paper's Figures 3 and 4;
// see EXPERIMENTS.md for the measured-vs-paper comparison.
func Default() Params {
	return Params{
		Link: LinkParams{
			BandwidthBytesPerSec: 1_250_000_000, // 10 Gbps
			Propagation:          3 * sim.Microsecond,
			MTU:                  1500,
			FrameOverheadBytes:   58, // Ethernet+IP+TCP headers
		},
		Host: HostParams{
			Cores:      4,
			NICEngines: 2,
		},
		TCP: TCPParams{
			SendSyscall:  12 * sim.Microsecond,
			RecvSyscall:  10 * sim.Microsecond,
			CopyPerKB:    250 * sim.Nanosecond,
			SegmentProc:  500 * sim.Nanosecond,
			Interrupt:    8 * sim.Microsecond,
			Wakeup:       14 * sim.Microsecond,
			MsgHandle:    6500 * sim.Nanosecond,
			SocketBuffer: 4 << 20,
		},
		RDMA: RDMAParams{
			PostWR:           6 * sim.Microsecond,
			PostWRBatched:    1 * sim.Microsecond,
			NICProcess:       2 * sim.Microsecond,
			DMAPerKB:         125 * sim.Nanosecond, // ~8 GB/s DMA engines
			InlineMax:        256,
			InlineSave:       1500 * sim.Nanosecond,
			CQEGenerate:      1 * sim.Microsecond,
			CQPoll:           1 * sim.Microsecond,
			CompletionHandle: 8 * sim.Microsecond, // Java event-channel path
			RecvWRRefill:     1 * sim.Microsecond,
			MemRegisterBase:  80 * sim.Microsecond,
			MemRegisterPerKB: 250 * sim.Nanosecond,
			RNRRetry:         7,
			RNRDelay:         60 * sim.Microsecond,
		},
		Selector: SelectorParams{
			NIODispatch:   4 * sim.Microsecond,
			RubinDispatch: 5 * sim.Microsecond,
			MsgHandle:     3500 * sim.Nanosecond,
			CopyPerKB:     500 * sim.Nanosecond,
			CQEvent:       2 * sim.Microsecond,
		},
		Crypto: CryptoParams{
			HMACBase:    1500 * sim.Nanosecond,
			HMACPerKB:   350 * sim.Nanosecond,
			DigestBase:  900 * sim.Nanosecond,
			DigestPerKB: 300 * sim.Nanosecond,
		},
		Protocol: ProtocolParams{
			// ~125 MB/s of leader-side marshalling: the Java-flavored
			// object serialization and copy work the Reptor ordering
			// stage pays per proposal byte.
			OrderRequest: 5 * sim.Microsecond,
			OrderPerKB:   8 * sim.Microsecond,
			ExecRequest:  2 * sim.Microsecond,
		},
	}
}

// KB converts a per-KB rate into a cost for size bytes, rounding to the
// nearest nanosecond.
func KB(perKB sim.Time, size int) sim.Time {
	return sim.Time(int64(perKB) * int64(size) / 1024)
}
