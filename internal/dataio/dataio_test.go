package dataio

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"metablocking/internal/entity"
	"metablocking/internal/paperexample"
)

func TestCSVRoundTrip(t *testing.T) {
	want := paperexample.Collection()
	var buf bytes.Buffer
	if err := WriteProfilesCSV(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfilesCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Task != want.Task || got.Size() != want.Size() {
		t.Fatalf("task/size mismatch: %v/%d", got.Task, got.Size())
	}
	if !reflect.DeepEqual(got.Profiles, want.Profiles) {
		t.Fatal("profiles differ after CSV round trip")
	}
}

func TestCSVCleanCleanRoundTrip(t *testing.T) {
	var a, b entity.Profile
	a.Add("name", "x")
	b.Add("title", "y")
	want := entity.NewCleanClean([]entity.Profile{a}, []entity.Profile{b})
	var buf bytes.Buffer
	if err := WriteProfilesCSV(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfilesCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Task != entity.CleanClean || got.Split != 1 {
		t.Fatalf("clean-clean lost: task=%v split=%d", got.Task, got.Split)
	}
}

// writeProfilesJSONL writes a collection as one JSON object per line, the
// input of the JSONL reader's round trip.
func writeProfilesJSONL(w io.Writer, c *entity.Collection) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range c.Profiles {
		p := &c.Profiles[i]
		source := 1
		if c.Task == entity.CleanClean && !c.InFirst(p.ID) {
			source = 2
		}
		attrs := make(map[string][]string)
		for _, a := range p.Attributes {
			attrs[a.Name] = append(attrs[a.Name], a.Value)
		}
		if err := enc.Encode(jsonlProfile{ID: int(p.ID), Source: source, Attributes: attrs}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func TestJSONLRoundTrip(t *testing.T) {
	want := paperexample.Collection()
	var buf bytes.Buffer
	if err := writeProfilesJSONL(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfilesJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != want.Size() || got.Task != want.Task {
		t.Fatalf("size/task mismatch")
	}
	// JSONL groups attributes by name; token sets must survive exactly.
	for i := range want.Profiles {
		w := want.Profiles[i].TokenSet()
		g := got.Profiles[i].TokenSet()
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("profile %d tokens differ: %v vs %v", i, g, w)
		}
	}
}

func TestJSONLDefaultsSourceOne(t *testing.T) {
	in := `{"id": 0, "attributes": {"name": ["a"]}}
{"id": 1, "attributes": {"name": ["b"]}}`
	c, err := ReadProfilesJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if c.Task != entity.Dirty || c.Size() != 2 {
		t.Fatalf("got %v/%d", c.Task, c.Size())
	}
}

func TestJSONLErrors(t *testing.T) {
	for name, in := range map[string]string{
		"garbage":      "not json",
		"bad source":   `{"id":0,"source":7,"attributes":{}}`,
		"mixed source": `{"id":0,"source":1,"attributes":{}}` + "\n" + `{"id":0,"source":2,"attributes":{}}`,
		"empty":        "",
	} {
		if _, err := ReadProfilesJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestCSVErrors(t *testing.T) {
	for name, in := range map[string]string{
		"bad id":     "x,1,a,v\n",
		"bad source": "0,3,a,v\n",
		"mixed":      "0,1,a,v\n0,2,b,w\n",
		"empty":      "id,source,attribute,value\n",
		"ragged":     "0,1,a\n",
	} {
		if _, err := ReadProfilesCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestGroundTruthCSV(t *testing.T) {
	gt, err := ReadGroundTruthCSV(strings.NewReader("0,5\n6,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if gt.Size() != 2 || !gt.Contains(5, 0) || !gt.Contains(1, 6) {
		t.Fatalf("ground truth wrong: %v", gt.Pairs())
	}
	if _, err := ReadGroundTruthCSV(strings.NewReader("x,y\n")); err == nil {
		t.Error("bad pair accepted")
	}
}

func TestWritePairsCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePairsCSV(&buf, []entity.Pair{{A: 1, B: 2}, {A: 3, B: 4}}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "1,2\n3,4\n" {
		t.Fatalf("output = %q", buf.String())
	}
}

// TestWritePairsCSVMatchesEncodingCSV holds the hand-formatted lines to
// what encoding/csv writes for the same pairs, byte for byte, across the
// whole ID range and more pairs than one buffer holds.
func TestWritePairsCSVMatchesEncodingCSV(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pairs := []entity.Pair{{A: 0, B: 0}, {A: 0, B: math.MaxInt32}, {A: math.MaxInt32, B: math.MaxInt32}}
	for len(pairs) < 20000 {
		a, b := rng.Int31(), rng.Int31()
		if len(pairs)%2 == 0 {
			a, b = a%1000, b%100000 // short and mixed-width IDs too
		}
		pairs = append(pairs, entity.Pair{A: a, B: b})
	}
	var want bytes.Buffer
	cw := csv.NewWriter(&want)
	for _, p := range pairs {
		if err := cw.Write([]string{strconv.Itoa(int(p.A)), strconv.Itoa(int(p.B))}); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WritePairsCSV(&got, pairs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WritePairsCSV wrote %d bytes that differ from encoding/csv's %d", got.Len(), want.Len())
	}
}

// TestAppendPairsCSVMatchesEncodingCSV is a property test: for random pair
// lists — runs of one A, as pruning emits them, with IDs of every width
// from 0 to math.MaxInt32, and negative ones — AppendPairsCSV appends to
// any prefix exactly the bytes encoding/csv writes.
func TestAppendPairsCSVMatchesEncodingCSV(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	id := func() int32 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.MaxInt32
		case 2:
			return -rng.Int31() - int32(rng.Intn(2)) // down to math.MinInt32
		default:
			return rng.Int31() >> rng.Intn(31) // every width
		}
	}
	for trial := 0; trial < 500; trial++ {
		var pairs []entity.Pair
		for len(pairs) < rng.Intn(60) {
			a := id()
			for run := 1 + rng.Intn(4); run > 0; run-- {
				pairs = append(pairs, entity.Pair{A: a, B: id()})
			}
		}
		var want bytes.Buffer
		want.WriteString("prefix\n")
		cw := csv.NewWriter(&want)
		for _, p := range pairs {
			if err := cw.Write([]string{strconv.Itoa(int(p.A)), strconv.Itoa(int(p.B))}); err != nil {
				t.Fatal(err)
			}
		}
		cw.Flush()
		if got := AppendPairsCSV([]byte("prefix\n"), pairs); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("trial %d: AppendPairsCSV(%v) = %q, encoding/csv wrote %q", trial, pairs, got, want.Bytes())
		}
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct {
	n   int
	err error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWritePairsCSVSurfacesWriteError: a writer that fails — at once, in
// the middle of the stream, or only on the final flush — fails the call
// with its error.
func TestWritePairsCSVSurfacesWriteError(t *testing.T) {
	boom := errors.New("disk full")
	pairs := make([]entity.Pair, 50000) // ≈ 200 KB: several buffers
	for i := range pairs {
		pairs[i] = entity.Pair{A: int32(i), B: int32(i + 1)}
	}
	for _, accept := range []int{0, 100000} {
		if err := WritePairsCSV(&failAfter{n: accept, err: boom}, pairs); !errors.Is(err, boom) {
			t.Errorf("writer failing after %d bytes: got %v, want %v", accept, err, boom)
		}
	}
	if err := WritePairsCSV(&failAfter{err: boom}, pairs[:1]); !errors.Is(err, boom) {
		t.Errorf("writer failing on the final flush: got %v, want %v", err, boom)
	}
}
