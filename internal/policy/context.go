package policy

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Resolver supplies attribute values that are not carried in the request
// itself. It is the hook through which the Policy Decision Point consults
// Policy Information Points (Section 2.2 of the paper). Resolution is a
// live, cancelable part of evaluation: implementations must honour the
// context — a PIP fetch is a network round-trip in the architecture the
// paper argues for, and a stuck backend must not stall the decision past
// the caller's deadline.
type Resolver interface {
	// ResolveAttribute returns the bag of values for the named attribute,
	// or an empty bag if the attribute is unknown. Implementations may
	// consult the partially-populated request for correlation (for
	// example, looking up roles by subject identifier) and must return
	// promptly with ctx.Err() once the context is done.
	ResolveAttribute(ctx context.Context, req *Request, cat Category, name string) (Bag, error)
}

// ResolverFunc adapts a function to the Resolver interface.
type ResolverFunc func(ctx context.Context, req *Request, cat Category, name string) (Bag, error)

var _ Resolver = (ResolverFunc)(nil)

// ResolveAttribute implements Resolver.
func (f ResolverFunc) ResolveAttribute(ctx context.Context, req *Request, cat Category, name string) (Bag, error) {
	return f(ctx, req, cat, name)
}

type attrKey struct {
	cat  Category
	name string
}

// Context carries everything one evaluation needs: the request, the
// information-point resolver, the evaluation clock, and the caller's
// cancellation context. A Context is used by a single evaluation and is not
// safe for concurrent use.
type Context struct {
	// Ctx is the caller's request context, threaded into every resolver
	// round-trip so a deadline or cancellation aborts in-flight attribute
	// retrieval. Nil means context.Background().
	Ctx context.Context
	// Request holds the attributes supplied by the enforcement point.
	Request *Request
	// Resolver optionally supplies attributes missing from the request.
	Resolver Resolver
	// Now is the evaluation time used by time functions and the
	// current-time environment attribute. The zero value means wall-clock
	// time captured lazily on first use.
	Now time.Time

	resolved map[attrKey]Bag
	// timeBag and dateBag memoise the built-in environment attribute
	// bags: Now is fixed for the context's lifetime, and current-date in
	// particular costs an fmt.Sprintf to render, so repeated designator
	// lookups reuse the first rendering.
	timeBag, dateBag Bag
	// ResolverCalls counts round-trips to the resolver, exposed so
	// experiments can account PIP traffic (experiment E4).
	ResolverCalls int
}

// contextPool recycles evaluation contexts: the PDP acquires one per
// cache-miss evaluation, so at decision rates the per-call Context (and
// its memo map, once grown) would otherwise dominate hot-path allocation.
var contextPool = sync.Pool{New: func() any { return new(Context) }}

// AcquireContext returns a pooled evaluation context over the request at
// an explicit clock — the allocation-free counterpart of NewContextAt for
// high-rate callers. ctx bounds resolver round-trips; nil means
// context.Background(). Pass the result to ReleaseContext once the
// evaluation's Result has been read; Results never retain the context.
func AcquireContext(ctx context.Context, req *Request, now time.Time) *Context {
	c := contextPool.Get().(*Context)
	c.Ctx = ctx
	c.Request = req
	c.Now = now.UTC()
	return c
}

// ReleaseContext resets a context acquired with AcquireContext and returns
// it to the pool. The context must not be used after release.
func ReleaseContext(c *Context) {
	c.Ctx = nil
	c.Request = nil
	c.Resolver = nil
	c.Now = time.Time{}
	c.timeBag = nil
	c.dateBag = nil
	c.ResolverCalls = 0
	clear(c.resolved) // keep the map: its capacity is the point of pooling
	contextPool.Put(c)
}

// NewContext builds an evaluation context over the request with no resolver
// and the current wall-clock time.
func NewContext(req *Request) *Context {
	return &Context{Request: req, Now: time.Now().UTC()}
}

// NewContextAt builds an evaluation context with an explicit clock, used by
// deterministic tests and the virtual-time simulator.
func NewContextAt(req *Request, now time.Time) *Context {
	return &Context{Request: req, Now: now.UTC()}
}

// WithResolver attaches an attribute resolver and returns the context.
func (c *Context) WithResolver(r Resolver) *Context {
	c.Resolver = r
	return c
}

func (c *Context) now() time.Time {
	if c.Now.IsZero() {
		c.Now = time.Now().UTC()
	}
	return c.Now
}

// ctx returns the caller context, defaulting to Background.
func (c *Context) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// Attribute fetches an attribute bag, looking first at the request, then at
// built-in environment attributes, then at the resolver. Resolved values are
// memoised for the lifetime of the context so repeated designators do not
// repeat information-point traffic. A missing attribute yields an empty bag
// and no error; designators enforce MustBePresent themselves. A done
// caller context aborts the resolver round-trip with its error, which
// evaluation surfaces as Indeterminate.
func (c *Context) Attribute(cat Category, name string) (Bag, error) {
	if c.Request != nil {
		if bag, ok := c.Request.Get(cat, name); ok {
			return bag, nil
		}
	}
	if cat == CategoryEnvironment {
		switch name {
		case AttrCurrentTime:
			if c.timeBag == nil {
				c.timeBag = Singleton(Time(c.now()))
			}
			return c.timeBag, nil
		case AttrCurrentDate:
			if c.dateBag == nil {
				y, m, d := c.now().Date()
				c.dateBag = Singleton(String(fmt.Sprintf("%04d-%02d-%02d", y, m, d)))
			}
			return c.dateBag, nil
		}
	}
	if c.Resolver == nil {
		return nil, nil
	}
	key := attrKey{cat: cat, name: name}
	if bag, ok := c.resolved[key]; ok {
		return bag, nil
	}
	ctx := c.ctx()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("policy: resolve %s/%s: %w", cat, name, err)
	}
	c.ResolverCalls++
	bag, err := c.Resolver.ResolveAttribute(ctx, c.Request, cat, name)
	if err != nil {
		return nil, fmt.Errorf("policy: resolve %s/%s: %w", cat, name, err)
	}
	if c.resolved == nil {
		c.resolved = make(map[attrKey]Bag, 8)
	}
	c.resolved[key] = bag
	return bag, nil
}
