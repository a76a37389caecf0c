package cve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
	"unicode/utf8"

	"nvdclean/internal/cpe"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
)

// The binary snapshot codec is the generation store's checkpoint
// encoding: a length-prefixed, reflection-free image of a Snapshot.
// Every value is stored as the very string the feed codec writes for it
// (minute-truncated UTC times, cwe.ID.String(), cpe.Name.FormatString(),
// CVSS vector strings, each coerced to valid UTF-8 the way encoding/json
// does) and decoded with the same parsers and the same skip-versus-fail
// rules as ReadFeed, so
//
//	ReadSnapshot(WriteSnapshot(s)) == ReadFeed(WriteFeedCompact(s))
//
// holds by construction. Layout (every integer an unsigned LEB128
// varint, every string a varint byte length followed by the bytes):
//
//	magic "NVDSNAP1"
//	capturedAt
//	entry count, then per entry:
//	  id, published, lastModified ("" when zero)
//	  CWE count, CWE strings
//	  reference count, per reference: url, tag count, tags
//	  description count, per description: source, value
//	  CPE count, CPE formatted strings
//	  flags byte (snapV2 | snapV3 | snapPV3), then the present ones of:
//	  v2 vector, v3 vector, PV3 as 8 little-endian IEEE-754 bytes
//
// The decoder checks every length and count against the remaining
// input before allocating, rejects invalid UTF-8 and non-finite PV3
// scores (the encoder never writes either), and rejects trailing bytes.
const snapMagic = "NVDSNAP1"

const (
	snapV2 = 1 << iota
	snapV3
	snapPV3
)

var (
	// errSnapTruncated reports a length, count or value running past
	// the end of the input.
	errSnapTruncated = errors.New("truncated")
	errSnapUTF8      = errors.New("invalid UTF-8 string")
)

// WriteSnapshot serializes s in the binary snapshot format. It fails
// exactly where WriteFeedCompact would: on a non-finite PV3 score.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	sw := snapWriter{w: bufio.NewWriterSize(w, 64<<10)}
	sw.w.WriteString(snapMagic)
	sw.time(s.CapturedAt)
	sw.uvarint(uint64(len(s.Entries)))
	for _, e := range s.Entries {
		if err := sw.entry(e); err != nil {
			return err
		}
	}
	return sw.w.Flush()
}

type snapWriter struct {
	w   *bufio.Writer
	tmp []byte
}

func (sw *snapWriter) uvarint(v uint64) {
	sw.tmp = binary.AppendUvarint(sw.tmp[:0], v)
	sw.w.Write(sw.tmp)
}

func (sw *snapWriter) str(s string) {
	s = jsonSafe(s)
	sw.uvarint(uint64(len(s)))
	sw.w.WriteString(s)
}

func (sw *snapWriter) time(t time.Time) {
	var buf [32]byte
	b := t.UTC().AppendFormat(buf[:0], feedTime)
	sw.uvarint(uint64(len(b)))
	sw.w.Write(b)
}

func (sw *snapWriter) entry(e *Entry) error {
	sw.str(e.ID)
	sw.time(e.Published)
	if e.LastModified.IsZero() {
		sw.uvarint(0)
	} else {
		sw.time(e.LastModified)
	}
	sw.uvarint(uint64(len(e.CWEs)))
	for _, id := range e.CWEs {
		sw.str(id.String())
	}
	sw.uvarint(uint64(len(e.References)))
	for _, r := range e.References {
		sw.str(r.URL)
		sw.uvarint(uint64(len(r.Tags)))
		for _, t := range r.Tags {
			sw.str(t)
		}
	}
	sw.uvarint(uint64(len(e.Descriptions)))
	for _, d := range e.Descriptions {
		sw.str(d.Source)
		sw.str(d.Value)
	}
	sw.uvarint(uint64(len(e.CPEs)))
	for _, n := range e.CPEs {
		sw.str(n.FormatString())
	}
	var flags byte
	if e.V2 != nil {
		flags |= snapV2
	}
	if e.V3 != nil {
		flags |= snapV3
	}
	if e.PV3 != nil {
		if math.IsNaN(*e.PV3) || math.IsInf(*e.PV3, 0) {
			return fmt.Errorf("cve: %s: unsupported backported score %v", e.ID, *e.PV3)
		}
		flags |= snapPV3
	}
	sw.w.WriteByte(flags)
	if e.V2 != nil {
		sw.str(e.V2.String())
	}
	if e.V3 != nil {
		sw.str(e.V3.String())
	}
	if e.PV3 != nil {
		sw.tmp = binary.LittleEndian.AppendUint64(sw.tmp[:0], math.Float64bits(*e.PV3))
		sw.w.Write(sw.tmp)
	}
	return nil
}

// jsonSafe returns s as encoding/json writes it: every byte of an
// invalid UTF-8 sequence becomes U+FFFD.
func jsonSafe(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	b := make([]byte, 0, len(s)+8)
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = utf8.AppendRune(b, utf8.RuneError)
		} else {
			b = append(b, s[i:i+size]...)
		}
		i += size
	}
	return string(b)
}

// ReadSnapshot parses a snapshot written by WriteSnapshot.
func ReadSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("cve: not a binary snapshot")
	}
	r := snapReader{b: data[len(snapMagic):]}
	s := &Snapshot{}
	if ts := r.bytes(); len(ts) > 0 {
		if t, err := time.Parse(feedTime, string(ts)); err == nil {
			s.CapturedAt = t
		}
	}
	n := r.count(snapMinEntry)
	if r.err != nil {
		return nil, fmt.Errorf("cve: snapshot header: %w", r.err)
	}
	if n > 0 {
		s.Entries = make([]*Entry, 0, n)
	}
	for i := 0; i < n; i++ {
		e, err := r.entry()
		if err != nil {
			return nil, fmt.Errorf("cve: snapshot entry %d (%s): %w", i, e.ID, err)
		}
		s.Entries = append(s.Entries, e)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("cve: snapshot has %d trailing bytes", len(r.b))
	}
	return s, nil
}

// snapMinEntry is a lower bound on the encoded size of an entry
// ReadFeed accepts: an ID that passes SplitID ("CVE-1988-0") and a
// published time that parses ("2018-05-21T1:00Z") take at least 10 and
// 16 bytes plus their length prefixes. It bounds the entry count, and so
// the up-front allocation, by the input length.
const snapMinEntry = 2 + 10 + 16

// snapReader consumes the input front to back. The first failure is
// kept in err; later reads then return zero values, so callers check
// err once per entry.
type snapReader struct {
	b   []byte
	err error
}

func (r *snapReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *snapReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(errSnapTruncated)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads an element count and checks that the remaining input
// could hold that many elements of at least minSize bytes each.
func (r *snapReader) count(minSize int) int {
	v := r.uvarint()
	if v > uint64(len(r.b)/minSize) {
		r.fail(errSnapTruncated)
		return 0
	}
	return int(v)
}

// bytes returns the next length-prefixed byte string, aliasing the
// input.
func (r *snapReader) bytes() []byte {
	v := r.uvarint()
	if v > uint64(len(r.b)) {
		r.fail(errSnapTruncated)
		return nil
	}
	b := r.b[:v:v]
	r.b = r.b[v:]
	return b
}

func (r *snapReader) str() string {
	b := r.bytes()
	if !utf8.Valid(b) {
		r.fail(errSnapUTF8)
		return ""
	}
	return string(b)
}

// entry decodes one entry with decodeItem's rules: a bad ID, published
// time or CVSS vector fails, a bad last-modified time reads as zero,
// and unparsable or Unassigned CWEs and unparsable CPEs are skipped.
// The returned entry is never nil, so callers can name its ID.
func (r *snapReader) entry() (*Entry, error) {
	e := &Entry{ID: r.str()}
	published := r.str()
	lastModified := r.str()
	for n := r.count(1); n > 0; n-- {
		id, err := cwe.Parse(r.str())
		if err != nil || id == cwe.Unassigned {
			continue
		}
		e.CWEs = append(e.CWEs, id)
	}
	if n := r.count(2); n > 0 {
		e.References = make([]Reference, n)
		for i := range e.References {
			ref := &e.References[i]
			ref.URL = r.str()
			if k := r.count(1); k > 0 {
				ref.Tags = make([]string, k)
				for j := range ref.Tags {
					ref.Tags[j] = r.str()
				}
			}
		}
	}
	if n := r.count(2); n > 0 {
		e.Descriptions = make([]Description, n)
		for i := range e.Descriptions {
			e.Descriptions[i] = Description{Source: r.str(), Value: r.str()}
		}
	}
	for n := r.count(1); n > 0; n-- {
		name, err := cpe.Parse(r.str())
		if err != nil {
			continue // tolerated, as in collectCPEs
		}
		e.CPEs = append(e.CPEs, name)
	}
	var flags byte
	if len(r.b) > 0 {
		flags = r.b[0]
		r.b = r.b[1:]
	} else {
		r.fail(errSnapTruncated)
	}
	if flags&^(snapV2|snapV3|snapPV3) != 0 {
		r.fail(fmt.Errorf("unknown flags %#x", flags))
	}
	var v2, v3 string
	if flags&snapV2 != 0 {
		v2 = r.str()
	}
	if flags&snapV3 != 0 {
		v3 = r.str()
	}
	if flags&snapPV3 != 0 {
		if len(r.b) < 8 {
			r.fail(errSnapTruncated)
		} else {
			score := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
			r.b = r.b[8:]
			if math.IsNaN(score) || math.IsInf(score, 0) {
				r.fail(fmt.Errorf("non-finite backported score"))
			}
			e.PV3 = &score
		}
	}
	if r.err != nil {
		return e, r.err
	}

	if _, _, err := SplitID(e.ID); err != nil {
		return e, err
	}
	var err error
	if e.Published, err = time.Parse(feedTime, published); err != nil {
		return e, fmt.Errorf("published date: %w", err)
	}
	if lastModified != "" {
		e.LastModified, _ = time.Parse(feedTime, lastModified)
	}
	if flags&snapV2 != 0 {
		v, err := cvss.ParseV2(v2)
		if err != nil {
			return e, fmt.Errorf("v2 vector: %w", err)
		}
		e.V2 = &v
	}
	if flags&snapV3 != 0 {
		v, err := cvss.ParseV3(v3)
		if err != nil {
			return e, fmt.Errorf("v3 vector: %w", err)
		}
		e.V3 = &v
	}
	return e, nil
}
