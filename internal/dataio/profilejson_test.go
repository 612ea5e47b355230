package dataio

import (
	"reflect"
	"testing"

	"metablocking/internal/entity"
)

func TestParseProfileJSON(t *testing.T) {
	p, err := ParseProfileJSON([]byte(`{"id": 7, "source": 2,
		"attributes": {"name": ["Jack Miller"], "address": ["Ast. 5", "Athens"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	// Attribute names come out sorted, values in declaration order; id and
	// source are ignored (arrival order owns IDs).
	want := []entity.Attribute{
		{Name: "address", Value: "Ast. 5"},
		{Name: "address", Value: "Athens"},
		{Name: "name", Value: "Jack Miller"},
	}
	if p.ID != 0 {
		t.Fatalf("ID = %d, want 0 (unassigned)", p.ID)
	}
	if !reflect.DeepEqual(p.Attributes, want) {
		t.Fatalf("attributes = %v, want %v", p.Attributes, want)
	}
}

func TestParseProfileJSONRejectsGarbage(t *testing.T) {
	if _, err := ParseProfileJSON([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}
