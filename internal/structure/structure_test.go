package structure

import (
	"testing"

	"repro/internal/catalog"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	return catalog.TPCH(1)
}

func TestCPUNode(t *testing.T) {
	s := CPUNode(2)
	if s.Kind != KindCPUNode || s.NodeOrdinal != 2 || s.Bytes != 0 {
		t.Errorf("CPUNode(2) = %+v", s)
	}
	if s.ID != "cpu:2" || s.ID != CPUNodeID(2) {
		t.Errorf("ID = %q", s.ID)
	}
}

func TestColumnStructure(t *testing.T) {
	c := testCatalog(t)
	ref := catalog.Col("lineitem", "l_shipdate")
	s, err := ColumnStructure(c, ref)
	if err != nil {
		t.Fatalf("ColumnStructure: %v", err)
	}
	if s.Kind != KindColumn || s.Column != ref {
		t.Errorf("structure = %+v", s)
	}
	want, _ := c.ColumnBytes(ref)
	if s.Bytes != want {
		t.Errorf("Bytes = %d, want %d", s.Bytes, want)
	}
	if s.ID != "col:lineitem.l_shipdate" {
		t.Errorf("ID = %q", s.ID)
	}
	if _, err := ColumnStructure(c, catalog.Col("zzz", "a")); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestIndexStructure(t *testing.T) {
	c := testCatalog(t)
	def := catalog.IndexDef{Table: "lineitem", Columns: []string{"l_shipdate", "l_partkey"}}
	s, err := IndexStructure(c, def)
	if err != nil {
		t.Fatalf("IndexStructure: %v", err)
	}
	if s.Kind != KindIndex || s.ID != ID(def.Name()) {
		t.Errorf("structure = %+v", s)
	}
	if len(s.IndexColumns) != 2 || s.IndexColumns[0].ID != ColumnID(catalog.Col("lineitem", "l_shipdate")) ||
		s.IndexColumns[1].ID != ColumnID(catalog.Col("lineitem", "l_partkey")) {
		t.Errorf("IndexColumns = %v, want the key columns in definition order", s.IndexColumns)
	}
	want, _ := c.IndexBytes(def)
	if s.Bytes != want || s.Bytes <= 0 {
		t.Errorf("Bytes = %d, want %d", s.Bytes, want)
	}
	if _, err := IndexStructure(c, catalog.IndexDef{Table: "bad"}); err == nil {
		t.Error("bad index accepted")
	}
}

func TestKindOf(t *testing.T) {
	c := testCatalog(t)
	col, _ := ColumnStructure(c, catalog.Col("orders", "o_orderdate"))
	idx, _ := IndexStructure(c, catalog.IndexDef{Table: "orders", Columns: []string{"o_orderdate"}})
	tests := []struct {
		id   ID
		want Kind
	}{
		{CPUNode(3).ID, KindCPUNode},
		{col.ID, KindColumn},
		{idx.ID, KindIndex},
	}
	for _, tt := range tests {
		if got := KindOf(tt.id); got != tt.want {
			t.Errorf("KindOf(%q) = %v, want %v", tt.id, got, tt.want)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindCPUNode.String() != "cpu-node" || KindColumn.String() != "column" || KindIndex.String() != "index" {
		t.Error("Kind strings wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestStructureString(t *testing.T) {
	if CPUNode(2).String() == "" {
		t.Error("empty String")
	}
}
