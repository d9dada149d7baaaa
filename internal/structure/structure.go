// Package structure defines the physical cache structures the cloud can
// invest in. §V-C fixes the inventory to three kinds: CPU nodes (N), table
// columns (T) and indexes (I).
//
// A structure has two names. Its ID is the stable string that crosses
// every boundary — JSON, the wire, snapshots, the journal and traces —
// and can be resolved back to the structure against the catalog. Its
// Handle is a dense integer that one cache's handle table (cache.Cache)
// assigns on first sight; residency, ownership, failure history, price
// memos and regret entries are slices indexed by it, so the per-query
// decision path never hashes a string.
package structure

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
)

// Kind enumerates the three structure types of §V-C.
type Kind int

// The structure kinds.
const (
	KindCPUNode Kind = iota // N: an extra CPU node booted on demand
	KindColumn              // T: a table column cached from the back-end
	KindIndex               // I: an index built in the cache
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCPUNode:
		return "cpu-node"
	case KindColumn:
		return "column"
	case KindIndex:
		return "index"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ID is the canonical identifier of a structure. The textual forms are:
//
//	cpu:2                          the second CPU node (the first is free)
//	col:lineitem.l_shipdate        a cached column
//	idx_lineitem(l_shipdate,...)   an index (catalog.IndexDef.Name)
type ID string

// Handle is a structure's dense integer name within one cache's handle
// table (see cache.Cache). Handles are small, stable for the life of the
// cache, and meaningless across caches; order by ID goes through the
// table's rank, never through the handle value.
type Handle int32

// NoHandle names no structure: the result of looking up an ID the table
// has never interned.
const NoHandle Handle = -1

// Structure describes one buildable structure. It is immutable once
// constructed; residency and accounting state live in the cache and the
// economy respectively.
type Structure struct {
	ID   ID
	Kind Kind

	// Column is set for KindColumn.
	Column catalog.ColumnRef
	// Index is set for KindIndex.
	Index catalog.IndexDef
	// IndexColumns is set for KindIndex: the column structures the index
	// is built from, in Index.Columns order. Eq. 14 builds the missing
	// ones first.
	IndexColumns []*Structure
	// NodeOrdinal is set for KindCPUNode: 2 for the first extra node,
	// 3 for the second, and so on (node 1 is the always-on coordinator
	// worker and is never a structure).
	NodeOrdinal int

	// Bytes is the disk footprint of the structure. CPU nodes occupy no
	// disk; columns occupy size(T) (Eq. 13); indexes size(I) (Eq. 15).
	Bytes int64
}

// CPUNode returns the structure describing the n-th CPU node (n ≥ 2).
func CPUNode(n int) *Structure {
	return &Structure{
		ID:          ID(fmt.Sprintf("cpu:%d", n)),
		Kind:        KindCPUNode,
		NodeOrdinal: n,
	}
}

// ColumnStructure returns the structure for caching one table column,
// sized from the catalog.
func ColumnStructure(c *catalog.Catalog, ref catalog.ColumnRef) (*Structure, error) {
	bytes, err := c.ColumnBytes(ref)
	if err != nil {
		return nil, err
	}
	return &Structure{
		ID:     ColumnID(ref),
		Kind:   KindColumn,
		Column: ref,
		Bytes:  bytes,
	}, nil
}

// IndexStructure returns the structure for building an index, sized from
// the catalog.
func IndexStructure(c *catalog.Catalog, def catalog.IndexDef) (*Structure, error) {
	bytes, err := c.IndexBytes(def)
	if err != nil {
		return nil, err
	}
	cols := make([]*Structure, len(def.Columns))
	for i, name := range def.Columns {
		if cols[i], err = ColumnStructure(c, catalog.Col(def.Table, name)); err != nil {
			return nil, err
		}
	}
	return &Structure{
		ID:           ID(def.Name()),
		Kind:         KindIndex,
		Index:        def,
		IndexColumns: cols,
		Bytes:        bytes,
	}, nil
}

// ColumnID returns the canonical ID for a cached column.
func ColumnID(ref catalog.ColumnRef) ID { return ID("col:" + ref.String()) }

// IndexID returns the canonical ID for an index definition.
func IndexID(def catalog.IndexDef) ID { return ID(def.Name()) }

// CPUNodeID returns the canonical ID for the n-th CPU node.
func CPUNodeID(n int) ID { return ID(fmt.Sprintf("cpu:%d", n)) }

// KindOf parses the kind out of an ID without needing the Structure.
func KindOf(id ID) Kind {
	s := string(id)
	switch {
	case strings.HasPrefix(s, "cpu:"):
		return KindCPUNode
	case strings.HasPrefix(s, "col:"):
		return KindColumn
	default:
		return KindIndex
	}
}

// String implements fmt.Stringer.
func (s *Structure) String() string {
	return fmt.Sprintf("%s(%s, %dB)", s.Kind, s.ID, s.Bytes)
}
