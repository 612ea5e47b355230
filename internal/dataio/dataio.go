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

// WritePairsCSV writes comparison pairs as id1,id2 lines: AppendPairsCSV
// into one reused buffer, a few thousand pairs per Write.
func WritePairsCSV(w io.Writer, pairs []entity.Pair) error {
	// 4096 lines are at most 96 KiB: a million-pair file is megabytes, and
	// the write calls are a fifth of the time at bufio's default 4 KiB.
	const batch = 4096
	var buf []byte
	for len(pairs) > 0 {
		n := min(len(pairs), batch)
		buf = AppendPairsCSV(buf[:0], pairs[:n])
		if _, err := w.Write(buf); err != nil {
			return err
		}
		pairs = pairs[n:]
	}
	return nil
}

// AppendPairsCSV appends the pairs to dst as id1,id2 lines and returns the
// extended buffer. IDs are integers, which CSV never quotes, so the lines
// are formatted directly — byte-identical to encoding/csv's output. The
// pairs of a pruning result come grouped by A, so a line reuses the
// previous line's "id1," when its A is the same.
func AppendPairsCSV(dst []byte, pairs []entity.Pair) []byte {
	var head [len("-2147483648,")]byte
	n := 0
	for k, p := range pairs {
		if k == 0 || p.A != pairs[k-1].A {
			n = len(append(appendID(head[:0], p.A), ','))
		}
		dst = append(dst, head[:n]...)
		dst = appendID(dst, p.B)
		dst = append(dst, '\n')
	}
	return dst
}

// digitPairs holds "00" to "99": appendID writes two digits per division.
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

// appendID appends id in decimal, as strconv.AppendInt does, without its
// 64-bit arithmetic for the non-negative IDs every collection has.
func appendID(dst []byte, id entity.ID) []byte {
	if id < 0 {
		return strconv.AppendInt(dst, int64(id), 10)
	}
	var b [10]byte
	i, u := len(b), uint32(id)
	for u >= 100 {
		r := u % 100 * 2
		u /= 100
		i -= 2
		b[i], b[i+1] = digitPairs[r], digitPairs[r+1]
	}
	if u >= 10 {
		i -= 2
		b[i], b[i+1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		i--
		b[i] = byte('0' + u)
	}
	return append(dst, b[i:]...)
}
