package policy

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Category partitions request attributes, mirroring the XACML attribute
// categories. Enums start at one so the zero Category is invalid.
type Category int

// The four standard attribute categories.
const (
	CategorySubject Category = iota + 1
	CategoryResource
	CategoryAction
	CategoryEnvironment
)

// Categories lists all valid categories in canonical order.
func Categories() []Category {
	return []Category{CategorySubject, CategoryResource, CategoryAction, CategoryEnvironment}
}

// String returns the canonical name of the category.
func (c Category) String() string {
	switch c {
	case CategorySubject:
		return "subject"
	case CategoryResource:
		return "resource"
	case CategoryAction:
		return "action"
	case CategoryEnvironment:
		return "environment"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// CategoryFromString parses a canonical category name.
func CategoryFromString(s string) (Category, error) {
	switch s {
	case "subject":
		return CategorySubject, nil
	case "resource":
		return CategoryResource, nil
	case "action":
		return CategoryAction, nil
	case "environment":
		return CategoryEnvironment, nil
	default:
		return 0, fmt.Errorf("policy: unknown category %q", s)
	}
}

// Well-known attribute names used across the repository. Using shared
// constants keeps policies, information points and enforcement points
// interoperable, which Section 3.2 of the paper calls out as a necessity.
const (
	AttrSubjectID     = "subject-id"
	AttrSubjectRole   = "role"
	AttrSubjectDomain = "subject-domain"
	AttrSubjectGroup  = "group"
	AttrClearance     = "clearance"

	AttrResourceID       = "resource-id"
	AttrResourceOwner    = "owner"
	AttrResourceDomain   = "resource-domain"
	AttrResourceType     = "resource-type"
	AttrClassification   = "classification"
	AttrConflictOfIntSet = "conflict-of-interest-class"

	AttrActionID = "action-id"

	AttrCurrentTime = "current-time"
	AttrCurrentDate = "current-date"
)

// cacheKey is the memoised rendering of a request's cache key together
// with its 64-bit hash, computed once and shared by every cache layer.
type cacheKey struct {
	rendered string
	hash     uint64
}

// Request holds the attributes describing one access request: who (subject)
// wants to do what (action) to which resource, in which environment. It is
// the in-memory form of an XACML request context.
type Request struct {
	// attrs is one flat map: a request carries a handful of attributes,
	// and a map per category would cost two allocations each.
	attrs map[attrKey]Bag
	// key memoises CacheKey and CacheKeyHash: decision caches at the PEP,
	// the PDP and the cluster batch sweep all key on them, and rendering
	// dominates the cache-hit path. Stored atomically so concurrent
	// evaluations of a shared request stay race-free; Add and Set
	// invalidate it.
	key atomic.Pointer[cacheKey]
}

// NewRequest returns an empty request.
func NewRequest() *Request {
	return &Request{attrs: make(map[attrKey]Bag)}
}

// NewAccessRequest builds the common subject/resource/action triple request.
func NewAccessRequest(subject, resource, action string) *Request {
	r := NewRequest()
	r.Add(CategorySubject, AttrSubjectID, String(subject))
	r.Add(CategoryResource, AttrResourceID, String(resource))
	r.Add(CategoryAction, AttrActionID, String(action))
	return r
}

// Add appends values to the named attribute, creating it if necessary.
// It returns the request to allow chaining during construction.
func (r *Request) Add(cat Category, name string, vals ...Value) *Request {
	key := attrKey{cat: cat, name: name}
	r.attrs[key] = append(r.attrs[key], vals...)
	r.key.Store(nil)
	return r
}

// Set replaces the named attribute's bag.
func (r *Request) Set(cat Category, name string, bag Bag) *Request {
	r.attrs[attrKey{cat: cat, name: name}] = bag.Clone()
	r.key.Store(nil)
	return r
}

// Get returns the named attribute's bag and whether it is present.
func (r *Request) Get(cat Category, name string) (Bag, bool) {
	bag, ok := r.attrs[attrKey{cat: cat, name: name}]
	return bag, ok
}

// SubjectID returns the well-known subject identifier, or "" if absent.
func (r *Request) SubjectID() string { return r.first(CategorySubject, AttrSubjectID) }

// ResourceID returns the well-known resource identifier, or "" if absent.
func (r *Request) ResourceID() string { return r.first(CategoryResource, AttrResourceID) }

// ActionID returns the well-known action identifier, or "" if absent.
func (r *Request) ActionID() string { return r.first(CategoryAction, AttrActionID) }

func (r *Request) first(cat Category, name string) string {
	bag, ok := r.Get(cat, name)
	if !ok || bag.Empty() {
		return ""
	}
	return bag[0].String()
}

// Names returns the attribute names present in a category, sorted.
func (r *Request) Names(cat Category) []string {
	var names []string
	for key := range r.attrs {
		if key.cat == cat {
			names = append(names, key.name)
		}
	}
	sort.Strings(names)
	return names
}

// Clone returns a deep copy of the request.
func (r *Request) Clone() *Request {
	out := NewRequest()
	for key, bag := range r.attrs {
		out.attrs[key] = bag.Clone()
	}
	return out
}

// CacheKey renders a deterministic string identifying the request's
// attribute content, used by decision caches. Attributes are serialised in
// sorted order so logically equal requests share a key. The rendering is
// memoised until the next Add or Set, so stacked cache layers (PEP, PDP,
// batch sweep) pay for it once per request, not once per lookup.
func (r *Request) CacheKey() string { return r.cacheKey().rendered }

// CacheKeyHash returns a 64-bit FNV-1a hash of CacheKey, memoised with the
// rendering. Sharded decision caches use it to pick a shard (and the PDP a
// stat stripe) without re-hashing the key per lookup.
func (r *Request) CacheKeyHash() uint64 { return r.cacheKey().hash }

func (r *Request) cacheKey() *cacheKey {
	if k := r.key.Load(); k != nil {
		return k
	}
	var sb strings.Builder
	for _, cat := range Categories() {
		names := r.Names(cat)
		for _, n := range names {
			bag, _ := r.Get(cat, n)
			vals := bag.Strings()
			sort.Strings(vals)
			sb.WriteString(cat.String())
			sb.WriteByte('/')
			sb.WriteString(n)
			sb.WriteByte('=')
			sb.WriteString(strings.Join(vals, ","))
			sb.WriteByte(';')
		}
	}
	k := &cacheKey{rendered: sb.String(), hash: HashString(sb.String())}
	r.key.Store(k)
	return k
}

// HashString is an allocation-free FNV-1a 64 over a string: deterministic
// and well mixed in the low bits power-of-two masks select on. It is the
// one hash behind CacheKeyHash, the PDP's cache-shard choice and its stat
// stripes, so every layer agrees on placement.
func HashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// String renders a compact human-readable summary of the request.
func (r *Request) String() string {
	return fmt.Sprintf("request{subject=%s action=%s resource=%s}", r.SubjectID(), r.ActionID(), r.ResourceID())
}
