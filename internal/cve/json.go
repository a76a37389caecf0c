package cve

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"nvdclean/internal/cpe"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
)

// The NVD JSON 1.1 feed layout. Field names follow the feed schema so
// the codec reads real NVD data-feed files unchanged.
type (
	feedJSON struct {
		DataType    string     `json:"CVE_data_type"`
		DataFormat  string     `json:"CVE_data_format"`
		DataVersion string     `json:"CVE_data_version"`
		NumberCVEs  string     `json:"CVE_data_numberOfCVEs"`
		Timestamp   string     `json:"CVE_data_timestamp"`
		Items       []itemJSON `json:"CVE_Items"`
	}

	itemJSON struct {
		CVE            cveJSON      `json:"cve"`
		Configurations *configsJSON `json:"configurations,omitempty"`
		Impact         *impactJSON  `json:"impact,omitempty"`
		PublishedDate  string       `json:"publishedDate"`
		LastModified   string       `json:"lastModifiedDate,omitempty"`
	}

	cveJSON struct {
		Meta        metaJSON     `json:"CVE_data_meta"`
		ProblemType problemJSON  `json:"problemtype"`
		References  refsJSON     `json:"references"`
		Description descListJSON `json:"description"`
	}

	metaJSON struct {
		ID       string `json:"ID"`
		Assigner string `json:"ASSIGNER,omitempty"`
	}

	problemJSON struct {
		Data []problemDataJSON `json:"problemtype_data"`
	}

	problemDataJSON struct {
		Description []langValueJSON `json:"description"`
	}

	langValueJSON struct {
		Lang   string `json:"lang"`
		Value  string `json:"value"`
		Source string `json:"source,omitempty"` // extension: evaluator provenance
	}

	refsJSON struct {
		Data []refJSON `json:"reference_data"`
	}

	refJSON struct {
		URL  string   `json:"url"`
		Name string   `json:"name,omitempty"`
		Tags []string `json:"tags,omitempty"`
	}

	descListJSON struct {
		Data []langValueJSON `json:"description_data"`
	}

	configsJSON struct {
		DataVersion string     `json:"CVE_data_version"`
		Nodes       []nodeJSON `json:"nodes"`
	}

	nodeJSON struct {
		Operator string         `json:"operator,omitempty"`
		CPEMatch []cpeMatchJSON `json:"cpe_match,omitempty"`
		Children []nodeJSON     `json:"children,omitempty"`
	}

	cpeMatchJSON struct {
		Vulnerable bool   `json:"vulnerable"`
		CPE23URI   string `json:"cpe23Uri"`
	}

	impactJSON struct {
		BaseMetricV3 *baseMetricV3JSON `json:"baseMetricV3,omitempty"`
		BaseMetricV2 *baseMetricV2JSON `json:"baseMetricV2,omitempty"`
		// BackportedV3 is this codec's extension slot for the §4.3
		// predicted v3 score of v2-only CVEs. Real NVD feeds never
		// carry the key, so reading them is unaffected.
		BackportedV3 *backportedV3JSON `json:"backportedV3,omitempty"`
	}

	backportedV3JSON struct {
		BaseScore    float64 `json:"baseScore"`
		BaseSeverity string  `json:"baseSeverity"`
	}

	baseMetricV3JSON struct {
		CVSSV3 cvssV3JSON `json:"cvssV3"`
	}

	cvssV3JSON struct {
		Version      string  `json:"version"`
		VectorString string  `json:"vectorString"`
		BaseScore    float64 `json:"baseScore"`
		BaseSeverity string  `json:"baseSeverity"`
	}

	baseMetricV2JSON struct {
		CVSSV2   cvssV2JSON `json:"cvssV2"`
		Severity string     `json:"severity,omitempty"`
	}

	cvssV2JSON struct {
		Version      string  `json:"version"`
		VectorString string  `json:"vectorString"`
		BaseScore    float64 `json:"baseScore"`
	}
)

// feedTime is the timestamp layout of the NVD JSON feeds.
const feedTime = "2006-01-02T15:04Z"

// WriteFeed serializes the snapshot in NVD JSON 1.1 data-feed format,
// indented like the published feeds.
func WriteFeed(w io.Writer, s *Snapshot) error {
	return writeFeed(w, s, true)
}

// WriteFeedCompact is WriteFeed without indentation, for machine
// consumers where size beats readability. ReadFeed accepts both forms
// identically.
func WriteFeedCompact(w io.Writer, s *Snapshot) error {
	return writeFeed(w, s, false)
}

func writeFeed(w io.Writer, s *Snapshot, indent bool) error {
	f := feedJSON{
		DataType:    "CVE",
		DataFormat:  "MITRE",
		DataVersion: "4.0",
		NumberCVEs:  strconv.Itoa(len(s.Entries)),
		Timestamp:   s.CapturedAt.UTC().Format(feedTime),
		Items:       make([]itemJSON, 0, len(s.Entries)),
	}
	for _, e := range s.Entries {
		f.Items = append(f.Items, encodeItem(e))
	}
	enc := json.NewEncoder(w)
	if indent {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(&f)
}

func encodeItem(e *Entry) itemJSON {
	item := itemJSON{
		CVE: cveJSON{
			Meta: metaJSON{ID: e.ID, Assigner: "cve@mitre.org"},
		},
		PublishedDate: e.Published.UTC().Format(feedTime),
	}
	if !e.LastModified.IsZero() {
		item.LastModified = e.LastModified.UTC().Format(feedTime)
	}
	// Problem type (CWE field).
	var ptDescs []langValueJSON
	for _, id := range e.CWEs {
		ptDescs = append(ptDescs, langValueJSON{Lang: "en", Value: id.String()})
	}
	item.CVE.ProblemType.Data = []problemDataJSON{{Description: ptDescs}}
	// References.
	for _, r := range e.References {
		item.CVE.References.Data = append(item.CVE.References.Data, refJSON{
			URL: r.URL, Name: r.URL, Tags: r.Tags,
		})
	}
	// Descriptions.
	for _, d := range e.Descriptions {
		item.CVE.Description.Data = append(item.CVE.Description.Data, langValueJSON{
			Lang: "en", Value: d.Value, Source: d.Source,
		})
	}
	// Configurations (CPE list).
	if len(e.CPEs) > 0 {
		node := nodeJSON{Operator: "OR"}
		for _, n := range e.CPEs {
			node.CPEMatch = append(node.CPEMatch, cpeMatchJSON{
				Vulnerable: true, CPE23URI: n.FormatString(),
			})
		}
		item.Configurations = &configsJSON{DataVersion: "4.0", Nodes: []nodeJSON{node}}
	}
	// Impact.
	if e.V2 != nil || e.V3 != nil || e.PV3 != nil {
		item.Impact = &impactJSON{}
		if e.PV3 != nil {
			item.Impact.BackportedV3 = &backportedV3JSON{
				BaseScore:    *e.PV3,
				BaseSeverity: upper(cvss.SeverityV3(*e.PV3).String()),
			}
		}
		if e.V3 != nil {
			item.Impact.BaseMetricV3 = &baseMetricV3JSON{CVSSV3: cvssV3JSON{
				Version:      "3.0",
				VectorString: e.V3.String(),
				BaseScore:    e.V3.BaseScore(),
				BaseSeverity: upper(e.V3.Severity().String()),
			}}
		}
		if e.V2 != nil {
			item.Impact.BaseMetricV2 = &baseMetricV2JSON{
				CVSSV2: cvssV2JSON{
					Version:      "2.0",
					VectorString: e.V2.String(),
					BaseScore:    e.V2.BaseScore(),
				},
				Severity: upper(e.V2.Severity().String()),
			}
		}
	}
	return item
}

func upper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// ReadFeed parses an NVD JSON 1.1 data feed. Malformed CWE strings and
// CPE URIs are skipped rather than fatal, matching how NVD consumers must
// treat the real feeds; CVSS vector strings must parse when present.
func ReadFeed(r io.Reader) (*Snapshot, error) {
	var f feedJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("cve: decoding feed: %w", err)
	}
	s := &Snapshot{}
	if f.Timestamp != "" {
		if ts, err := time.Parse(feedTime, f.Timestamp); err == nil {
			s.CapturedAt = ts
		}
	}
	for i := range f.Items {
		e, err := decodeItem(&f.Items[i])
		if err != nil {
			return nil, fmt.Errorf("cve: item %d (%s): %w", i, f.Items[i].CVE.Meta.ID, err)
		}
		s.Entries = append(s.Entries, e)
	}
	return s, nil
}

func decodeItem(item *itemJSON) (*Entry, error) {
	e := &Entry{ID: item.CVE.Meta.ID}
	if _, _, err := SplitID(e.ID); err != nil {
		return nil, err
	}
	var err error
	e.Published, err = time.Parse(feedTime, item.PublishedDate)
	if err != nil {
		return nil, fmt.Errorf("published date: %w", err)
	}
	if item.LastModified != "" {
		e.LastModified, _ = time.Parse(feedTime, item.LastModified)
	}
	for _, pd := range item.CVE.ProblemType.Data {
		for _, d := range pd.Description {
			id, perr := cwe.Parse(d.Value)
			if perr != nil || id == cwe.Unassigned {
				continue
			}
			e.CWEs = append(e.CWEs, id)
		}
	}
	for _, r := range item.CVE.References.Data {
		e.References = append(e.References, Reference{URL: r.URL, Tags: r.Tags})
	}
	for _, d := range item.CVE.Description.Data {
		e.Descriptions = append(e.Descriptions, Description{Source: d.Source, Value: d.Value})
	}
	if item.Configurations != nil {
		collectCPEs(item.Configurations.Nodes, e)
	}
	if item.Impact != nil {
		if m := item.Impact.BaseMetricV2; m != nil {
			v, perr := cvss.ParseV2(m.CVSSV2.VectorString)
			if perr != nil {
				return nil, fmt.Errorf("v2 vector: %w", perr)
			}
			e.V2 = &v
		}
		if m := item.Impact.BaseMetricV3; m != nil {
			v, perr := cvss.ParseV3(m.CVSSV3.VectorString)
			if perr != nil {
				return nil, fmt.Errorf("v3 vector: %w", perr)
			}
			e.V3 = &v
		}
		if m := item.Impact.BackportedV3; m != nil {
			score := m.BaseScore
			e.PV3 = &score
		}
	}
	return e, nil
}

// deltaJSON is the serialized form of a Delta — the record type of the
// generation store's append-only log. Entries reuse the feed codec's
// item layout (including the backportedV3 extension key), so a log
// record is exactly one day's worth of feed movement in feed terms.
type deltaJSON struct {
	Kind       string     `json:"kind"`
	CapturedAt string     `json:"capturedAt,omitempty"`
	Added      []itemJSON `json:"added,omitempty"`
	Modified   []itemJSON `json:"modified,omitempty"`
	Removed    []string   `json:"removed,omitempty"`
}

const deltaKind = "cve-delta"

// MarshalDelta serializes a delta as one self-describing JSON document,
// the payload format of the generation store's log records.
func MarshalDelta(d *Delta) ([]byte, error) {
	dj := deltaJSON{Kind: deltaKind, Removed: d.Removed}
	if !d.CapturedAt.IsZero() {
		dj.CapturedAt = d.CapturedAt.UTC().Format(feedTime)
	}
	for _, e := range d.Added {
		dj.Added = append(dj.Added, encodeItem(e))
	}
	for _, e := range d.Modified {
		dj.Modified = append(dj.Modified, encodeItem(e))
	}
	return json.Marshal(&dj)
}

// UnmarshalDelta parses a delta written by MarshalDelta.
func UnmarshalDelta(b []byte) (*Delta, error) {
	var dj deltaJSON
	if err := json.Unmarshal(b, &dj); err != nil {
		return nil, fmt.Errorf("cve: decoding delta: %w", err)
	}
	if dj.Kind != deltaKind {
		return nil, fmt.Errorf("cve: unexpected delta kind %q", dj.Kind)
	}
	d := &Delta{Removed: dj.Removed}
	if dj.CapturedAt != "" {
		ts, err := time.Parse(feedTime, dj.CapturedAt)
		if err != nil {
			return nil, fmt.Errorf("cve: delta capture time: %w", err)
		}
		d.CapturedAt = ts
	}
	for i := range dj.Added {
		e, err := decodeItem(&dj.Added[i])
		if err != nil {
			return nil, fmt.Errorf("cve: delta added %d (%s): %w", i, dj.Added[i].CVE.Meta.ID, err)
		}
		d.Added = append(d.Added, e)
	}
	for i := range dj.Modified {
		e, err := decodeItem(&dj.Modified[i])
		if err != nil {
			return nil, fmt.Errorf("cve: delta modified %d (%s): %w", i, dj.Modified[i].CVE.Meta.ID, err)
		}
		d.Modified = append(d.Modified, e)
	}
	return d, nil
}

func collectCPEs(nodes []nodeJSON, e *Entry) {
	for _, node := range nodes {
		for _, m := range node.CPEMatch {
			if !m.Vulnerable {
				continue
			}
			n, err := cpe.Parse(m.CPE23URI)
			if err != nil {
				continue // tolerate malformed URIs in real feeds
			}
			e.CPEs = append(e.CPEs, n)
		}
		collectCPEs(node.Children, e)
	}
}
