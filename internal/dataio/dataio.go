// Package dataio reads and writes entity collections, ground truths and
// comparison lists in interchange formats: the CSV layout used by the
// command-line tools and a JSONL layout for streaming pipelines.
//
// CSV profiles (header required): id,source,attribute,value — rows with
// the same id form one profile; source is 1 or 2 and any source-2 row
// makes the task Clean-Clean ER. Ground truth CSV: id1,id2 per line.
//
// JSONL profiles: one object per line,
// {"id": 0, "source": 1, "attributes": {"name": ["Jack Miller"], ...}}.
package dataio

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"metablocking/internal/entity"
)

// rawProfile accumulates one profile's rows before densification.
type rawProfile struct {
	source int
	attrs  []entity.Attribute
}

// assemble densifies raw profiles into a collection, source 1 first.
func assemble(profiles map[int]*rawProfile) (*entity.Collection, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("dataio: no profiles in input")
	}
	order := make([]int, 0, len(profiles))
	for id := range profiles {
		order = append(order, id)
	}
	sort.Ints(order)
	var e1, e2 []entity.Profile
	for _, id := range order {
		p := entity.Profile{Attributes: profiles[id].attrs}
		if profiles[id].source == 1 {
			e1 = append(e1, p)
		} else {
			e2 = append(e2, p)
		}
	}
	if len(e2) == 0 {
		return entity.NewDirty(e1), nil
	}
	return entity.NewCleanClean(e1, e2), nil
}

// ReadProfilesCSV parses the id,source,attribute,value layout.
func ReadProfilesCSV(r io.Reader) (*entity.Collection, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	profiles := make(map[int]*rawProfile)
	first := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if first {
			first = false
			if strings.EqualFold(rec[0], "id") {
				continue // header
			}
		}
		id, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("dataio: bad profile id %q: %v", rec[0], err)
		}
		source, err := strconv.Atoi(rec[1])
		if err != nil || (source != 1 && source != 2) {
			return nil, fmt.Errorf("dataio: bad source %q (want 1 or 2)", rec[1])
		}
		p := profiles[id]
		if p == nil {
			p = &rawProfile{source: source}
			profiles[id] = p
		}
		if p.source != source {
			return nil, fmt.Errorf("dataio: profile %d appears in both sources", id)
		}
		p.attrs = append(p.attrs, entity.Attribute{Name: rec[2], Value: rec[3]})
	}
	return assemble(profiles)
}

// WriteProfilesCSV writes a collection in the CSV layout.
func WriteProfilesCSV(w io.Writer, c *entity.Collection) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{"id", "source", "attribute", "value"}); err != nil {
		return err
	}
	for i := range c.Profiles {
		p := &c.Profiles[i]
		source := "1"
		if c.Task == entity.CleanClean && !c.InFirst(p.ID) {
			source = "2"
		}
		for _, a := range p.Attributes {
			if err := cw.Write([]string{strconv.Itoa(int(p.ID)), source, a.Name, a.Value}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonlProfile is the JSONL record shape.
type jsonlProfile struct {
	ID         int                 `json:"id"`
	Source     int                 `json:"source"`
	Attributes map[string][]string `json:"attributes"`
}

// ParseProfileJSON decodes a single JSONL profile record —
// {"id": 0, "source": 1, "attributes": {"name": ["Jack Miller"], ...}} —
// into a Profile. The id and source fields are ignored: callers that
// assign IDs by arrival order (cmd/stream, the resolve server) own them.
// Attribute names are emitted in sorted order so the profile is
// deterministic regardless of JSON map iteration.
func ParseProfileJSON(line []byte) (entity.Profile, error) {
	var rec jsonlProfile
	if err := json.Unmarshal(line, &rec); err != nil {
		return entity.Profile{}, fmt.Errorf("dataio: %v", err)
	}
	var p entity.Profile
	names := make([]string, 0, len(rec.Attributes))
	for name := range rec.Attributes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, value := range rec.Attributes[name] {
			p.Add(name, value)
		}
	}
	return p, nil
}

// MarshalProfileJSON encodes a profile as one JSONL record — the shape
// ParseProfileJSON reads. Attributes with the same name are grouped, so
// Parse(Marshal(p)) yields p with attributes grouped by sorted name; two
// marshal/parse round trips are idempotent.
func MarshalProfileJSON(p entity.Profile) ([]byte, error) {
	attrs := make(map[string][]string, len(p.Attributes))
	for _, a := range p.Attributes {
		attrs[a.Name] = append(attrs[a.Name], a.Value)
	}
	return json.Marshal(jsonlProfile{ID: int(p.ID), Source: 1, Attributes: attrs})
}

// ReadProfilesJSONL parses one JSON object per line.
func ReadProfilesJSONL(r io.Reader) (*entity.Collection, error) {
	profiles := make(map[int]*rawProfile)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec jsonlProfile
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("dataio: line %d: %v", line, err)
		}
		if rec.Source == 0 {
			rec.Source = 1
		}
		if rec.Source != 1 && rec.Source != 2 {
			return nil, fmt.Errorf("dataio: line %d: bad source %d", line, rec.Source)
		}
		p := profiles[rec.ID]
		if p == nil {
			p = &rawProfile{source: rec.Source}
			profiles[rec.ID] = p
		} else if p.source != rec.Source {
			return nil, fmt.Errorf("dataio: profile %d appears in both sources", rec.ID)
		}
		// Deterministic attribute order within a record.
		names := make([]string, 0, len(rec.Attributes))
		for name := range rec.Attributes {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for _, value := range rec.Attributes[name] {
				p.attrs = append(p.attrs, entity.Attribute{Name: name, Value: value})
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return assemble(profiles)
}

// WriteProfilesJSONL writes a collection as one JSON object per line.
func WriteProfilesJSONL(w io.Writer, c *entity.Collection) error {
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

// ReadGroundTruthCSV parses id1,id2 lines.
func ReadGroundTruthCSV(r io.Reader) (*entity.GroundTruth, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	var pairs []entity.Pair
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		a, err1 := strconv.Atoi(rec[0])
		b, err2 := strconv.Atoi(rec[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("dataio: bad truth pair %v", rec)
		}
		pairs = append(pairs, entity.MakePair(entity.ID(a), entity.ID(b)))
	}
	return entity.NewGroundTruth(pairs), nil
}

// WritePairsCSV writes comparison pairs as id1,id2 lines. IDs are
// non-negative integers, which CSV never quotes, so the lines are
// formatted directly — byte-identical to encoding/csv's output.
func WritePairsCSV(w io.Writer, pairs []entity.Pair) error {
	// 64 KiB, not bufio's 4 KiB: a million-pair file is megabytes, and the
	// write calls are a fifth of the time at the default size.
	bw := bufio.NewWriterSize(w, 64<<10)
	var line [2*len("-2147483648") + 2]byte
	for _, p := range pairs {
		b := strconv.AppendInt(line[:0], int64(p.A), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p.B), 10)
		b = append(b, '\n')
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}
