package wire

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"
)

// Network errors, matched with errors.Is.
var (
	// ErrUnknownNode reports a destination not registered on the network.
	ErrUnknownNode = errors.New("wire: unknown node")
	// ErrUnreachable reports a crashed node or partitioned link.
	ErrUnreachable = errors.New("wire: node unreachable")
	// ErrLost reports a message dropped by the lossy link model.
	ErrLost = errors.New("wire: message lost")
	// ErrDeadline reports an exchange whose deadline budget (the
	// envelope's Deadline header, enforced on the call's virtual clock)
	// or caller context expired before the reply arrived.
	ErrDeadline = errors.New("wire: deadline exceeded")
	// ErrOverload reports a request the remote side rejected under
	// admission control (HTTP 503/429): the server is alive but shedding.
	// Callers distinguish it from unreachability — the right reaction is
	// backing off, not failing over.
	ErrOverload = errors.New("wire: server overloaded")
)

// Handler processes an incoming envelope at a node and returns the reply.
// Handlers may issue nested Sends with the same Call to model multi-hop
// protocols (PEP → PDP → PIP); the virtual clock accumulates across hops.
// ctx carries the sender's cancellation and deadline; handlers doing real
// work (deciding, resolving attributes) must thread it through.
//
// env.Body is valid only until the handler returns: the HTTP binding
// decodes it into a pooled buffer it reuses for the next request, so a
// handler that keeps body bytes (rather than values decoded from them)
// must copy them. A reply Body the handler builds in Call.Buffer is
// likewise reused once the transport has written it.
type Handler func(ctx context.Context, call *Call, env *Envelope) (*Envelope, error)

// Call carries the per-request virtual clock and traffic counters through
// a (possibly nested) message exchange.
type Call struct {
	// Elapsed is the accumulated virtual network latency.
	Elapsed time.Duration
	// Deadline bounds Elapsed: once the virtual clock passes it, further
	// hops on this call fail with ErrDeadline. Zero means unbounded. It
	// is armed from the first envelope carrying a Deadline budget and is
	// shared by nested hops, so a multi-hop flow (PEP → PDP → IdP) spends
	// one budget end-to-end — exactly how a real deadline propagates.
	Deadline time.Duration
	// Messages and Bytes count traffic attributed to this call.
	Messages int
	Bytes    int

	// pooling is set by a transport that writes replies out and then
	// returns the buffers Buffer handed out (pooled) to the pool.
	pooling bool
	pooled  [2]*[]byte
}

// Remaining reports the virtual budget left on the call; unbounded calls
// return 0, false.
func (c *Call) Remaining() (time.Duration, bool) {
	if c.Deadline <= 0 {
		return 0, false
	}
	rem := c.Deadline - c.Elapsed
	if rem < 0 {
		rem = 0
	}
	return rem, true
}

// LinkProps configures one directed link.
type LinkProps struct {
	// Latency is the one-way delay.
	Latency time.Duration
	// Loss is the message-drop probability in [0, 1).
	Loss float64
	// Down marks a partitioned link.
	Down bool
}

// Stats aggregates network-wide traffic.
type Stats struct {
	// Messages and Bytes count every envelope accepted onto the network
	// (requests and replies).
	Messages int64
	Bytes    int64
	// Lost counts messages dropped by the loss model.
	Lost int64
}

type linkKey struct{ from, to string }

// Network is a deterministic simulated message network. Latency is
// accounted on the Call's virtual clock rather than slept, so experiments
// over hundreds of domains run in microseconds and are exactly
// reproducible for a given seed.
type Network struct {
	defaultLatency time.Duration

	mu        sync.Mutex
	nodes     map[string]Handler
	down      map[string]bool
	links     map[linkKey]LinkProps
	rng       *rand.Rand
	stats     Stats
	msgSerial int64
}

// NewNetwork builds a network with the given default one-way latency and
// RNG seed (for the loss model).
func NewNetwork(defaultLatency time.Duration, seed int64) *Network {
	return &Network{
		defaultLatency: defaultLatency,
		nodes:          make(map[string]Handler),
		down:           make(map[string]bool),
		links:          make(map[linkKey]LinkProps),
		rng:            rand.New(rand.NewSource(seed)),
	}
}

// Register attaches a handler at the named node, replacing any existing
// one.
func (n *Network) Register(name string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[name] = h
}

// SetLink configures the directed link between two nodes.
func (n *Network) SetLink(from, to string, props LinkProps) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey{from: from, to: to}] = props
}

// SetNodeDown crashes or revives a node.
func (n *Network) SetNodeDown(name string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[name] = down
}

// NodeDown reports whether the node is crashed.
func (n *Network) NodeDown(name string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down[name]
}

// Stats returns a snapshot of network-wide counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// ResetStats zeroes the traffic counters between experiment phases.
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = Stats{}
}

// NextMessageID mints a network-unique message identifier.
func (n *Network) NextMessageID(from string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.msgSerial++
	return from + "-m" + strconv.FormatInt(n.msgSerial, 10)
}

func (n *Network) linkProps(from, to string) LinkProps {
	if p, ok := n.links[linkKey{from: from, to: to}]; ok {
		return p
	}
	return LinkProps{Latency: n.defaultLatency}
}

// traverse accounts one directed hop, returning an error when the link or
// destination refuses it, or when the hop pushes the call's virtual clock
// past its deadline.
func (n *Network) traverse(call *Call, from, to string, size int) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[to]; !ok {
		return fmt.Errorf("wire: %s: %w", to, ErrUnknownNode)
	}
	props := n.linkProps(from, to)
	if props.Down {
		return fmt.Errorf("wire: link %s->%s partitioned: %w", from, to, ErrUnreachable)
	}
	if n.down[to] {
		// The message travels, then times out against a dead host.
		call.Elapsed += props.Latency
		return fmt.Errorf("wire: %s is down: %w", to, ErrUnreachable)
	}
	if props.Loss > 0 && n.rng.Float64() < props.Loss {
		call.Elapsed += props.Latency
		n.stats.Lost++
		return fmt.Errorf("wire: %s->%s: %w", from, to, ErrLost)
	}
	call.Elapsed += props.Latency
	call.Messages++
	call.Bytes += size
	n.stats.Messages++
	n.stats.Bytes += int64(size)
	if call.Deadline > 0 && call.Elapsed > call.Deadline {
		// The message was on the wire when the budget ran out: the
		// traffic is spent, the answer is worthless.
		return fmt.Errorf("wire: %s->%s after %v of %v budget: %w", from, to, call.Elapsed, call.Deadline, ErrDeadline)
	}
	return nil
}

// Send delivers the envelope to its destination's handler and returns the
// reply, accounting both directions on the call's virtual clock. An
// envelope carrying a Deadline budget arms the call's virtual deadline (if
// none is armed yet), and a done ctx or an exhausted budget fails the
// exchange with ErrDeadline/the ctx error instead of delivering — the
// simulated-network analogue of a real transport timeout.
func (n *Network) Send(ctx context.Context, call *Call, env *Envelope) (*Envelope, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("wire: send %s->%s: %w", env.From, env.To, err)
	}
	if env.Deadline > 0 && call.Deadline == 0 {
		call.Deadline = call.Elapsed + env.Deadline
	}
	if env.MessageID == "" {
		env.MessageID = n.NextMessageID(env.From)
	}
	if err := n.traverse(call, env.From, env.To, env.WireSize()); err != nil {
		return nil, err
	}
	n.mu.Lock()
	handler := n.nodes[env.To]
	n.mu.Unlock()

	reply, err := handler(ctx, call, env)
	if err != nil {
		return nil, fmt.Errorf("wire: %s handling %s: %w", env.To, env.Action, err)
	}
	if reply == nil {
		return nil, nil
	}
	if reply.MessageID == "" {
		reply.MessageID = n.NextMessageID(env.To)
	}
	reply.From, reply.To = env.To, env.From
	if err := n.traverse(call, reply.From, reply.To, reply.WireSize()); err != nil {
		return nil, err
	}
	return reply, nil
}
