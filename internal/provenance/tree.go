// Package provenance implements the paper's network provenance taxonomy
// (§4): local vs distributed provenance, online vs offline stores,
// condensed (BDD-encoded semiring) provenance and quantifiable
// provenance, together with the distributed traceback
// query and the random-moonwalk sampling optimization (§5).
package provenance

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"provnet/internal/data"
)

// Tree is a derivation tree, the provenance representation of Figures 1
// and 2: the root is a tuple; each alternative derivation (combined by
// "union" in the figures) applies a rule at a location to child tuples;
// leaves (no derivations) are base tuples.
type Tree struct {
	// Tuple is the derived fact. Its Asserter is the principal that says
	// it.
	Tuple data.Tuple
	// Derivs are the alternative derivations; empty marks a base tuple.
	Derivs []*Deriv
	// Truncated marks nodes cut off by cycle detection or depth limits
	// during distributed reconstruction.
	Truncated bool
}

// Deriv is one derivation step: a rule fired at a location over children.
type Deriv struct {
	Rule     string
	Loc      string
	Children []*Tree
}

// NewLeaf builds a base-tuple tree node.
func NewLeaf(t data.Tuple) *Tree { return &Tree{Tuple: t} }

// NewDerived builds a tree node with one derivation.
func NewDerived(t data.Tuple, rule, loc string, children []*Tree) *Tree {
	return &Tree{Tuple: t, Derivs: []*Deriv{{Rule: rule, Loc: loc, Children: children}}}
}

// derivSig identifies a derivation for deduplication: the rule, location
// and the keys of its children.
func derivSig(rule, loc string, children []*Tree) string {
	var sb strings.Builder
	sb.WriteString(rule)
	sb.WriteByte('@')
	sb.WriteString(loc)
	for _, c := range children {
		sb.WriteByte('|')
		sb.WriteString(c.Tuple.Key()) //provlint:allow keystring derivation signatures dedupe on the canonical bytes; part of the provenance tree contract
	}
	return sb.String()
}

// Merge adds the derivations of other into t (same tuple), returning
// whether anything new was added. It implements the "union" node of the
// figures.
func (t *Tree) Merge(other *Tree) bool {
	if other == nil {
		return false
	}
	have := make(map[string]bool, len(t.Derivs))
	for _, d := range t.Derivs {
		have[derivSig(d.Rule, d.Loc, d.Children)] = true
	}
	changed := false
	for _, d := range other.Derivs {
		if sig := derivSig(d.Rule, d.Loc, d.Children); !have[sig] {
			have[sig] = true
			t.Derivs = append(t.Derivs, d)
			changed = true
		}
	}
	return changed
}

// Leaves returns the base tuples at the leaves of the tree (the "initial
// input base tuples" the paper's Figure 1 explanation refers to),
// deduplicated and sorted.
func (t *Tree) Leaves() []data.Tuple {
	seen := map[string]data.Tuple{}
	var rec func(*Tree)
	rec = func(n *Tree) {
		if len(n.Derivs) == 0 {
			seen[n.Tuple.Key()] = n.Tuple //provlint:allow keystring leaf dedup keys on the canonical bytes; cold traceback path
			return
		}
		for _, d := range n.Derivs {
			for _, c := range d.Children {
				rec(c)
			}
		}
	}
	rec(t)
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]data.Tuple, 0, len(keys))
	for _, k := range keys {
		out = append(out, seen[k])
	}
	return out
}

// Size returns the number of tree nodes (tuples, counting repeats).
func (t *Tree) Size() int {
	n := 1
	for _, d := range t.Derivs {
		for _, c := range d.Children {
			n += c.Size()
		}
	}
	return n
}

// Depth returns the height of the tree (a leaf has depth 1).
func (t *Tree) Depth() int {
	max := 0
	for _, d := range t.Derivs {
		for _, c := range d.Children {
			if h := c.Depth(); h > max {
				max = h
			}
		}
	}
	return max + 1
}

// Render pretty-prints the tree in the style of the paper's figures, with
// rule ovals annotated by their execution location and union nodes for
// alternative derivations:
//
//	reachable(a, c)
//	└─ union
//	   ├─ r1 @a
//	   │  └─ link(a, c)
//	   └─ r2 @a
//	      ├─ link(a, b)
//	      └─ b says reachable(b, c)
//
// annotate, if non-nil, appends per-tuple suffixes (e.g. condensed
// provenance expressions for Figure 2).
func (t *Tree) Render(annotate func(*Tree) string) string {
	var sb strings.Builder
	t.render(&sb, "", "", annotate)
	return sb.String()
}

func (t *Tree) render(sb *strings.Builder, prefix, childPrefix string, annotate func(*Tree) string) {
	sb.WriteString(prefix)
	sb.WriteString(t.Tuple.String())
	if annotate != nil {
		if s := annotate(t); s != "" {
			sb.WriteString("  ")
			sb.WriteString(s)
		}
	}
	if t.Truncated {
		sb.WriteString("  (truncated)")
	}
	sb.WriteByte('\n')

	writeDeriv := func(d *Deriv, pre, childPre string) {
		fmt.Fprintf(sb, "%s%s @%s\n", pre, d.Rule, d.Loc)
		for i, c := range d.Children {
			last := i == len(d.Children)-1
			if last {
				c.render(sb, childPre+"└─ ", childPre+"   ", annotate)
			} else {
				c.render(sb, childPre+"├─ ", childPre+"│  ", annotate)
			}
		}
	}

	switch len(t.Derivs) {
	case 0:
		return
	case 1:
		writeDeriv(t.Derivs[0], childPrefix+"└─ ", childPrefix+"   ")
	default:
		sb.WriteString(childPrefix + "└─ union\n")
		base := childPrefix + "   "
		for i, d := range t.Derivs {
			last := i == len(t.Derivs)-1
			if last {
				writeDeriv(d, base+"└─ ", base+"   ")
			} else {
				writeDeriv(d, base+"├─ ", base+"│  ")
			}
		}
	}
}

// --- serialization (local provenance is shipped with each tuple, §4.1) ---

// Marshal encodes the tree for shipment.
func (t *Tree) Marshal() []byte { return t.appendTo(nil) }

func (t *Tree) appendTo(b []byte) []byte {
	b = data.AppendTuple(b, t.Tuple)
	flags := byte(0)
	if t.Truncated {
		flags = 1
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(len(t.Derivs)))
	for _, d := range t.Derivs {
		b = data.AppendString(b, d.Rule)
		b = data.AppendString(b, d.Loc)
		b = binary.AppendUvarint(b, uint64(len(d.Children)))
		for _, c := range d.Children {
			b = c.appendTo(b)
		}
	}
	return b
}

// UnmarshalTree decodes a tree encoded by Marshal.
func UnmarshalTree(b []byte) (*Tree, error) {
	t, n, err := decodeTree(b, 0)
	if err != nil {
		return nil, err
	}
	if n != len(b) {
		return nil, fmt.Errorf("provenance: %d trailing bytes", len(b)-n)
	}
	return t, nil
}

func decodeTree(b []byte, depth int) (*Tree, int, error) {
	if depth > 10000 {
		return nil, 0, fmt.Errorf("provenance: tree too deep")
	}
	tu, n, err := data.DecodeTuple(b)
	if err != nil {
		return nil, 0, err
	}
	if n >= len(b) {
		return nil, 0, fmt.Errorf("provenance: truncated tree")
	}
	flags := b[n]
	n++
	nd, m := binary.Uvarint(b[n:])
	if m <= 0 {
		return nil, 0, uvarintErr(m)
	}
	n += m
	t := &Tree{Tuple: tu, Truncated: flags&1 != 0}
	if nd > uint64(len(b)) {
		return nil, 0, fmt.Errorf("provenance: corrupt deriv count")
	}
	for i := uint64(0); i < nd; i++ {
		rule, m, err := data.DecodeString(b[n:])
		if err != nil {
			return nil, 0, err
		}
		n += m
		loc, m, err := data.DecodeString(b[n:])
		if err != nil {
			return nil, 0, err
		}
		n += m
		nc, m := binary.Uvarint(b[n:])
		if m <= 0 {
			return nil, 0, uvarintErr(m)
		}
		n += m
		if nc > uint64(len(b)) {
			return nil, 0, fmt.Errorf("provenance: corrupt child count")
		}
		d := &Deriv{Rule: rule, Loc: loc}
		for j := uint64(0); j < nc; j++ {
			c, m, err := decodeTree(b[n:], depth+1)
			if err != nil {
				return nil, 0, err
			}
			n += m
			d.Children = append(d.Children, c)
		}
		t.Derivs = append(t.Derivs, d)
	}
	return t, n, nil
}

// uvarintErr names a binary.Uvarint failure: m == 0 is a short buffer,
// m < 0 an overflow.
func uvarintErr(m int) error {
	if m == 0 {
		return fmt.Errorf("provenance: short uvarint")
	}
	return fmt.Errorf("provenance: uvarint overflow")
}
