// Package rubin implements RUBIN, the paper's contribution: an RDMA
// communication framework that recreates the behaviour of the Java NIO
// selector and socket channel (paper Section III) so that BFT frameworks
// built around that interface — Reptor, BFT-SMaRt, UpRight — can adopt
// RDMA without redesigning their communication stacks.
//
// Components (Figure 1 of the paper):
//
//   - Channel: an RDMA connection with non-blocking Send/Receive methods,
//     owning its queue pair, pre-registered buffer pools and work requests.
//     Buffer count and size are configured independently (Section III-B).
//   - Selector: checks readiness of many channels without blocking on a
//     single thread. A hybrid event queue merges connection events (from
//     the RDMA CM) with completion events (from completion queues), and an
//     event manager replaces epoll (Section III-B.2).
//   - SelectionKey: the result of registering a channel, holding the
//     interest set — OpConnect (incoming connections), OpAccept
//     (connection establishments), OpReceive (received messages), OpSend
//     (send capacity) — and the ready set updated as I/O events arrive.
//
// A selector runs on one application thread of its host (fabric.Node.App
// unless NewSelectorOn names another): its channels' verbs posts,
// completion polls and receive copies and its dispatch queue there,
// registered or not — the single-threaded event loop RUBIN shares with the
// NIO design it replaces. A front-end has one selector and a replica host
// two per pillar, one for its peers and one for its clients, each on a
// thread of its own. The selector owns one send
// CQ and one receive CQ, and every channel made for it (Listen and Connect
// take the selector) completes to them: one completion event and one poll
// serve all the channels with completions, each CQE handed to its channel
// by QP number. A channel grows the pair by its work-request depths as it
// joins and shrinks it as it closes, so the pair cannot overrun.
//
// The Section IV optimizations are all implemented and individually
// controllable through Config for ablation:
//
//   - pre-registered send/receive buffer pools, reused across messages: a
//     received message is lent to the caller of Channel.Receive until its
//     next call, which hands the memory back to the receive pool;
//   - batched work-request posting (one doorbell for many WRs);
//   - selective signaling (a send completion only every Nth message);
//   - inline sends for payloads up to the device inline limit;
//   - zero-copy send (the application buffer region is registered
//     directly); the receive side is charged one copy out of the
//     registered buffer — the paper's known limitation. Zero-copy receive
//     is a cost-model counterfactual, not a channel setting: a model with
//     Selector.CopyPerKB = 0 projects the planned optimization.
//
// Security (Section III-C): RUBIN uses two-sided Send/Receive semantics
// exclusively, so no buffer is ever exposed to remote one-sided access and
// the receiver alone decides data placement; see the rdma package for the
// enforcement of the underlying protection checks.
package rubin
