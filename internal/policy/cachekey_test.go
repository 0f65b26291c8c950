package policy

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestCacheKeyCollisions lists pairs of requests with different content
// that a key of values joined by ',' and ';', without kinds, rendered
// alike. Each must get its own key.
func TestCacheKeyCollisions(t *testing.T) {
	read := func() *Request { return NewRequest().Add(CategoryAction, AttrActionID, String("read")) }
	for _, tc := range []struct {
		name string
		a, b *Request
	}{
		{"integer vs string", read().Add(CategorySubject, AttrClearance, Integer(9)), read().Add(CategorySubject, AttrClearance, String("9"))},
		{"double vs integer", read().Add(CategorySubject, AttrClearance, Double(1)), read().Add(CategorySubject, AttrClearance, Integer(1))},
		{"boolean vs string", read().Add(CategorySubject, "flag", Boolean(true)), read().Add(CategorySubject, "flag", String("true"))},
		{"two values vs one with a comma", read().Add(CategorySubject, AttrSubjectRole, String("a"), String("b")), read().Add(CategorySubject, AttrSubjectRole, String("a,b"))},
		{"value swallowing the next attribute",
			read().Add(CategorySubject, AttrSubjectID, String("u1;resource/resource-id=res-1")),
			read().Add(CategorySubject, AttrSubjectID, String("u1")).Add(CategoryResource, AttrResourceID, String("res-1"))},
		{"name swallowing the value", read().Add(CategorySubject, "a=b", String("c")), read().Add(CategorySubject, "a", String("b=c"))},
		{"empty value vs no value", read().Add(CategorySubject, "x", String("")), read().Add(CategorySubject, "x")},
		{"duplicate value", read().Add(CategorySubject, AttrSubjectRole, String("a"), String("a")), read().Add(CategorySubject, AttrSubjectRole, String("a"))},
	} {
		if tc.a.CacheKey() == tc.b.CacheKey() {
			t.Errorf("%s: both render %q", tc.name, tc.a.CacheKey())
		}
	}
}

// genValue draws a value of any kind from a small alphabet, so generated
// requests often share text across kinds and delimiters.
func genValue(rng *rand.Rand) Value {
	texts := []string{"", "a", "9", "a,b", ";", "s1:a", "b=c", "1;subject/x=", "true"}
	switch rng.Intn(6) {
	case 0:
		return Integer(int64(rng.Intn(3)) * 9)
	case 1:
		return Double([]float64{0, 1, 9, 0.5}[rng.Intn(4)])
	case 2:
		return Boolean(rng.Intn(2) == 0)
	case 3:
		return Time(time.Unix(int64(rng.Intn(3)), int64(rng.Intn(2))))
	case 4:
		return Duration(time.Duration(rng.Intn(3)) * time.Second)
	}
	return String(texts[rng.Intn(len(texts))])
}

type genAttr struct {
	cat  Category
	name string
	vals []Value
}

// genContent draws a request's content: up to five attributes over all
// four categories, names with delimiters, bags of up to four values with
// duplicates.
func genContent(rng *rand.Rand) []genAttr {
	names := []string{"a", "a=", "b", "x;y", "role", "1:a", "a,b"}
	seen := map[[2]string]bool{}
	var out []genAttr
	for n := rng.Intn(6); len(out) < n; {
		a := genAttr{cat: Categories()[rng.Intn(4)], name: names[rng.Intn(len(names))]}
		k := [2]string{a.cat.String(), a.name}
		if seen[k] {
			n--
			continue
		}
		seen[k] = true
		for i := rng.Intn(5); i > 0; i-- {
			a.vals = append(a.vals, genValue(rng))
		}
		out = append(out, a)
	}
	return out
}

// canonical renders content independently of the key: attributes by
// category and name, each bag as its sorted kind-tagged, quoted values.
func canonical(content []genAttr) string {
	var attrs []string
	for _, a := range content {
		var vals []string
		for _, v := range a.vals {
			vals = append(vals, fmt.Sprintf("%d:%q", v.Kind(), v.String()))
		}
		sort.Strings(vals)
		attrs = append(attrs, fmt.Sprintf("%d %q [%s]", a.cat, a.name, strings.Join(vals, " ")))
	}
	sort.Strings(attrs)
	return strings.Join(attrs, "|")
}

// build makes a request of the content in a random insertion order, bag
// order and mix of Add and Set.
func build(rng *rand.Rand, content []genAttr) *Request {
	r := NewRequest()
	for _, i := range rng.Perm(len(content)) {
		a := content[i]
		vals := append([]Value(nil), a.vals...)
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		switch rng.Intn(3) {
		case 0:
			r.Add(a.cat, a.name, vals...)
		case 1:
			r.Add(a.cat, a.name)
			for _, v := range vals {
				r.Add(a.cat, a.name, v)
			}
		default:
			r.Set(a.cat, a.name, vals)
		}
	}
	return r
}

// TestCacheKeyProperty: equal content gives an equal key and hash
// whatever the construction order; different content never shares a key.
func TestCacheKeyProperty(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		owner := map[string]string{}
		for i := 0; i < 50; i++ {
			content := genContent(rng)
			a, b := build(rng, content), build(rng, content)
			if a.CacheKey() != b.CacheKey() || a.CacheKeyHash() != b.CacheKeyHash() {
				t.Fatalf("seed %d: equal content, keys %q and %q", seed, a.CacheKey(), b.CacheKey())
			}
			c := canonical(content)
			if prev, ok := owner[a.CacheKey()]; ok && prev != c {
				t.Fatalf("seed %d: key %q shared by\n%s\n%s", seed, a.CacheKey(), prev, c)
			}
			owner[a.CacheKey()] = c
		}
	}
}
