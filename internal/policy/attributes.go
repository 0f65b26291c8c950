package policy

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"
	"time"
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

// attribute is one named bag of a request.
type attribute struct {
	cat  Category
	name string
	bag  Bag
}

// Request holds the attributes describing one access request: who (subject)
// wants to do what (action) to which resource, in which environment. It is
// the in-memory form of an XACML request context.
type Request struct {
	// attrs is sorted by category, then name, so Get is a short linear
	// scan and Names and the cache key walk it in order. It starts on
	// inline, and bags added while there is room start on values: a
	// request of a few single-valued attributes, the common shape, is one
	// allocation. Inline bags are capped at their length, so appending to
	// one copies it out.
	attrs  []attribute
	inline [4]attribute
	values [4]Value
	nvals  int
	// key memoises CacheKey and CacheKeyHash: decision caches at the PEP,
	// the PDP and the cluster batch sweep all key on them, and rendering
	// dominates the cache-hit path. Stored atomically so concurrent
	// evaluations of a shared request stay race-free; Add and Set
	// invalidate it.
	key atomic.Pointer[cacheKey]
}

// NewRequest returns an empty request.
func NewRequest() *Request {
	r := &Request{}
	r.attrs = r.inline[:0]
	return r
}

// NewAccessRequest builds the common subject/resource/action triple request.
func NewAccessRequest(subject, resource, action string) *Request {
	r := NewRequest()
	r.Add(CategorySubject, AttrSubjectID, String(subject))
	r.Add(CategoryResource, AttrResourceID, String(resource))
	r.Add(CategoryAction, AttrActionID, String(action))
	return r
}

// find returns the index of the named attribute and true, or the index it
// would be inserted at and false.
func (r *Request) find(cat Category, name string) (int, bool) {
	for i := range r.attrs {
		if a := &r.attrs[i]; a.cat > cat || (a.cat == cat && a.name >= name) {
			return i, a.cat == cat && a.name == name
		}
	}
	return len(r.attrs), false
}

// own copies vals into storage the request owns: the inline values while
// there is room, the heap otherwise. Nil stays nil.
func (r *Request) own(vals []Value) Bag {
	if vals == nil {
		return nil
	}
	if n, end := r.nvals, r.nvals+len(vals); end <= len(r.values) {
		r.nvals = end
		return append(r.values[n:n:end], vals...)
	}
	return slices.Clone(vals)
}

// Add appends values to the named attribute, creating it if necessary.
// It returns the request to allow chaining during construction.
func (r *Request) Add(cat Category, name string, vals ...Value) *Request {
	if i, ok := r.find(cat, name); ok {
		r.attrs[i].bag = append(r.attrs[i].bag, vals...)
	} else {
		r.insert(i, attribute{cat: cat, name: name, bag: r.own(vals)})
	}
	r.key.Store(nil)
	return r
}

// Set replaces the named attribute's bag.
func (r *Request) Set(cat Category, name string, bag Bag) *Request {
	if i, ok := r.find(cat, name); ok {
		r.attrs[i].bag = r.own(bag)
	} else {
		r.insert(i, attribute{cat: cat, name: name, bag: r.own(bag)})
	}
	r.key.Store(nil)
	return r
}

func (r *Request) insert(i int, a attribute) {
	if r.attrs == nil {
		r.attrs = r.inline[:0]
	}
	r.attrs = slices.Insert(r.attrs, i, a)
}

// Get returns the named attribute's bag and whether it is present.
func (r *Request) Get(cat Category, name string) (Bag, bool) {
	for i := range r.attrs {
		if a := &r.attrs[i]; a.cat == cat && a.name == name {
			return a.bag, true
		}
	}
	return nil, false
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
	for i := range r.attrs {
		if a := &r.attrs[i]; a.cat == cat {
			names = append(names, a.name)
		}
	}
	return names
}

// Clone returns a deep copy of the request.
func (r *Request) Clone() *Request {
	out := NewRequest()
	for _, a := range r.attrs {
		out.attrs = append(out.attrs, attribute{cat: a.cat, name: a.name, bag: out.own(a.bag)})
	}
	return out
}

// CacheKey renders a string identifying the request's attribute content,
// used by decision caches. Equal content gives an equal key whatever order
// the attributes and bag values were added in, and different content a
// different key: each attribute is written as its category, its
// length-prefixed name and its values, each value tagged with its kind and
// length-prefixed, so neither a delimiter inside a name or value nor two
// kinds with the same text make two requests share a key. The rendering
// is memoised until the next Add or Set, so stacked cache layers (PEP,
// PDP, batch sweep) pay for it once per request, not once per lookup.
func (r *Request) CacheKey() string { return r.cacheKey().rendered }

// CacheKeyHash returns a 64-bit FNV-1a hash of CacheKey, memoised with the
// rendering. Sharded decision caches use it to pick a shard (and the PDP a
// stat stripe) without re-hashing the key per lookup.
func (r *Request) CacheKeyHash() uint64 { return r.cacheKey().hash }

// cacheKey renders the key in one in-order walk of the sorted attributes
// into a stack buffer, so the key string is its one allocation besides the
// memo. An attribute renders as "subject/10:subject-id=s4:u-17;".
func (r *Request) cacheKey() *cacheKey {
	if k := r.key.Load(); k != nil {
		return k
	}
	var stack [256]byte
	buf := stack[:0]
	for i := range r.attrs {
		a := &r.attrs[i]
		buf = appendLenPrefixed(append(append(buf, a.cat.String()...), '/'), a.name)
		buf = append(appendBag(append(buf, '='), a.bag), ';')
	}
	s := string(buf)
	k := &cacheKey{rendered: s, hash: HashString(s)}
	r.key.Store(k)
	return k
}

// appendLenPrefixed appends "<len>:<s>".
func appendLenPrefixed(buf []byte, s string) []byte {
	return append(append(strconv.AppendInt(buf, int64(len(s)), 10), ':'), s...)
}

// appendBag appends the bag's values in byte order of their renderings,
// so the key does not depend on the order they were added in.
func appendBag(buf []byte, bag Bag) []byte {
	if len(bag) == 1 {
		return appendValue(buf, &bag[0])
	}
	// Render the values past the key so far, append them again in order,
	// then move the ordered copy down over the unordered one.
	start := len(buf)
	var stack [8][2]int
	spans := stack[:0]
	for i := range bag {
		lo := len(buf)
		buf = appendValue(buf, &bag[i])
		spans = append(spans, [2]int{lo, len(buf)})
	}
	slices.SortFunc(spans, func(a, b [2]int) int { return bytes.Compare(buf[a[0]:a[1]], buf[b[0]:b[1]]) })
	sorted := len(buf)
	for _, sp := range spans {
		buf = append(buf, buf[sp[0]:sp[1]]...)
	}
	return buf[:start+copy(buf[start:], buf[sorted:])]
}

// appendValue appends one value as its kind tag and its length-prefixed
// canonical text (a duration's text is its nanosecond count).
func appendValue(buf []byte, v *Value) []byte {
	if v.kind == KindString {
		return appendLenPrefixed(append(buf, 's'), v.str)
	}
	var tmp [64]byte
	text := tmp[:0]
	switch v.kind {
	case KindInteger:
		buf, text = append(buf, 'i'), strconv.AppendInt(text, v.num, 10)
	case KindDouble:
		buf, text = append(buf, 'f'), strconv.AppendFloat(text, v.flt, 'g', -1, 64)
	case KindBoolean:
		buf, text = append(buf, 'b'), strconv.AppendBool(text, v.bit)
	case KindTime:
		buf, text = append(buf, 't'), v.ts.AppendFormat(text, time.RFC3339Nano)
	case KindDuration:
		buf, text = append(buf, 'd'), strconv.AppendInt(text, int64(v.dur), 10)
	default:
		buf = append(buf, '?')
	}
	return append(append(strconv.AppendInt(buf, int64(len(text)), 10), ':'), text...)
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
