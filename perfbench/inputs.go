package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"time"

	"nvdclean/internal/cve"
	"nvdclean/internal/gen"
)

// Input sizes. The snapshot keeps internal/gen's small-scale ratio of
// CVEs to vendors at about a tenth of the paper's 107K entries.
const (
	numCVEs     = 10000
	numVendors  = 2000
	hotQueries  = 128   // read-hot /query grid; fits the daemon's 4 MiB LRU
	minCold     = 20000 // query-cold distinct /query keys
	pageSize    = 50    // the daemon's default /query limit
	fillQueries = 8192  // largest combinations query-cold reads, untimed, to fill the LRU
	fillLimit   = 1000  // the daemon's maximum /query limit, used by that fill
	prepPosts   = 3     // logged deltas in query-cold's prepared store
	dailyAdds   = 20    // new CVEs in a daily-update-shaped POST
	dailyEdits  = 10    // edits riding along in a daily-update-shaped POST
	zipfS       = 1.1
	postsSlack  = 8
	editMarker  = "perfbench edit"
	dailyMarker = "perfbench daily"
)

// inputs is everything one seed makes: the snapshot the daemon loads,
// the /query grids, and the POST sequence. Read operations are drawn
// from per-stream generators (see readMix) seeded from the same seed.
type inputs struct {
	seed     int64
	snap     *cve.Snapshot
	feed     []byte
	ids      []string
	hot      []string
	cold     []string
	fill     []string
	posts    []post
	prep     []post
	universe *gen.Universe
}

// post is one POST /feed body with what the benchmark expects back.
type post struct {
	kind    string // "edit", "daily" or "retrain"
	body    []byte
	changed int    // entries the daemon must report as changed
	probeID string // entry read back from the primary after the ack
	marker  string // text that entry's body must then contain
}

// streamSeed derives an independent generator seed for one input
// stream, so adding a stream never shifts another's draws.
func streamSeed(seed int64, stream string) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	for _, c := range []byte(stream) {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return int64(h >> 1)
}

// newInputs generates every input from seed; maxPosts bounds the POST
// sequence (one per second of the longest run plus slack).
func newInputs(seed int64, maxPosts int) (*inputs, error) {
	cfg := gen.SmallConfig()
	cfg.NumCVEs = numCVEs
	cfg.NumVendors = numVendors
	cfg.Seed = seed
	snap, _, universe, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	in := &inputs{seed: seed, snap: snap, universe: universe}
	var buf bytes.Buffer
	if err := cve.WriteFeedCompact(&buf, snap); err != nil {
		return nil, err
	}
	in.feed = buf.Bytes()
	in.ids = make([]string, len(snap.Entries))
	for i, e := range snap.Entries {
		in.ids[i] = e.ID
	}
	in.hot, in.cold, in.fill = queryGrids(snap, universe, rand.New(rand.NewSource(streamSeed(seed, "queries"))))
	if len(in.cold) < minCold {
		return nil, fmt.Errorf("query-cold grid has %d keys, want >= %d", len(in.cold), minCold)
	}
	in.posts = newPoster(in, "posts").sequence(maxPosts, true)
	in.prep = newPoster(in, "prep").sequence(prepPosts, false)
	return in, nil
}

// severityOf is the band a /query severity filter is drawn from: the
// entry's real v3 band, else its v2 band.
func severityOf(e *cve.Entry) (string, bool) {
	if s, ok := e.SeverityV3(); ok {
		return strings.ToLower(s.String()), true
	}
	if s, ok := e.SeverityV2(); ok {
		return strings.ToLower(s.String()), true
	}
	return "", false
}

// queryGrids builds the two /query key sets from vendor, product,
// severity and year combinations that occur in the snapshot under
// canonical names (those survive consolidation, so the queries match).
// The hot grid is the 128 combinations with the most matches; the cold
// set pages every combination at the daemon's default page size. The
// fill set asks for the largest combinations at the maximum page size:
// cache keys the cold set never uses, with pages big enough to fill the
// daemon's /query LRU before query-cold's window.
func queryGrids(snap *cve.Snapshot, u *gen.Universe, r *rand.Rand) (hot, cold, fill []string) {
	canonical := make(map[string]bool)
	for _, v := range u.Vendors {
		canonical[v.Name] = true
	}
	count := make(map[string]int)
	add := func(kv ...string) {
		q := url.Values{}
		for i := 0; i < len(kv); i += 2 {
			q.Set(kv[i], kv[i+1])
		}
		count[q.Encode()]++
	}
	for _, e := range snap.Entries {
		if len(e.CPEs) == 0 || !canonical[e.CPEs[0].Vendor] {
			continue
		}
		v, p, y := e.CPEs[0].Vendor, e.CPEs[0].Product, fmt.Sprint(e.Year())
		add("vendor", v)
		add("vendor", v, "product", p)
		add("vendor", v, "year", y)
		add("product", p, "year", y)
		add("vendor", v, "product", p, "year", y)
		if s, ok := severityOf(e); ok {
			add("vendor", v, "severity", s)
			add("severity", s, "year", y)
			add("vendor", v, "product", p, "severity", s)
		}
	}
	keys := make([]string, 0, len(count))
	for k := range count {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if count[keys[i]] != count[keys[j]] {
			return count[keys[i]] > count[keys[j]]
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys[:hotQueries] {
		hot = append(hot, "/query?"+k)
	}
	for _, k := range keys[:min(fillQueries, len(keys))] {
		fill = append(fill, fmt.Sprintf("/query?%s&limit=%d", k, fillLimit))
	}
	for _, k := range keys {
		for off := 0; off < count[k]; off += pageSize {
			if off == 0 {
				cold = append(cold, "/query?"+k)
			} else {
				cold = append(cold, fmt.Sprintf("/query?%s&offset=%d", k, off))
			}
		}
	}
	r.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	return hot, cold, fill
}

// poster generates a POST /feed sequence against a running view of the
// daemon's original (uncleaned) snapshot, so each body's expected
// changed count is exact.
type poster struct {
	r        *rand.Rand
	cur      map[string]*cve.Entry
	v2only   []string // IDs with a v2 vector and no v3 vector
	dual     []string // IDs with both vectors: the training split
	names    []vendorNames
	nextSeq  int
	captured time.Time
	n        int
}

// vendorNames is one vendor spelling (canonical or alias) with the
// product spellings a daily update may pair it with.
type vendorNames struct {
	vendor   string
	products []string
}

func newPoster(in *inputs, stream string) *poster {
	p := &poster{
		r:        rand.New(rand.NewSource(streamSeed(in.seed, stream))),
		cur:      make(map[string]*cve.Entry, len(in.snap.Entries)),
		captured: in.snap.CapturedAt,
	}
	for _, e := range in.snap.Entries {
		p.cur[e.ID] = e
		switch {
		case e.V2 != nil && e.V3 == nil:
			p.v2only = append(p.v2only, e.ID)
		case e.V2 != nil && e.V3 != nil:
			p.dual = append(p.dual, e.ID)
		}
		if y, seq, err := cve.SplitID(e.ID); err == nil && y == 2018 && seq >= p.nextSeq {
			p.nextSeq = seq + 1
		}
	}
	for _, v := range in.universe.Vendors {
		var prods []string
		for _, pr := range v.Products {
			prods = append(prods, pr.Name)
			prods = append(prods, pr.Aliases...)
		}
		if len(prods) == 0 {
			continue
		}
		p.names = append(p.names, vendorNames{v.Name, prods})
		for _, a := range v.Aliases {
			p.names = append(p.names, vendorNames{a.Name, prods})
		}
	}
	return p
}

// sequence returns n posts. With mixed shapes, every tenth post edits a
// dual-labeled entry (shifting the training fingerprint, so the model
// retrains), two in ten are daily-update-shaped batches, and the rest
// are one-entry edits of v2-only entries; otherwise every post is a
// one-entry edit.
func (p *poster) sequence(n int, mixed bool) []post {
	out := make([]post, 0, n)
	for k := 0; k < n; k++ {
		switch {
		case mixed && k%10 == 9:
			out = append(out, p.retrain())
		case mixed && k%5 == 2:
			out = append(out, p.daily())
		default:
			out = append(out, p.single())
		}
	}
	return out
}

// edit returns a modified clone of a v2-only entry not in taken: a
// description or a reference edit, with the text that proves it.
func (p *poster) edit(taken map[string]bool, refOK bool) (*cve.Entry, string) {
	var id string
	for {
		id = p.v2only[p.r.Intn(len(p.v2only))]
		if !taken[id] {
			break
		}
	}
	taken[id] = true
	e := p.cur[id].Clone()
	if refOK && p.r.Intn(2) == 0 {
		u := fmt.Sprintf("https://advisories.example/perfbench/%d-%d", p.n, p.r.Intn(1000000))
		e.References = append(e.References, cve.Reference{URL: u})
		return e, u
	}
	m := fmt.Sprintf("%s %d-%d", editMarker, p.n, p.r.Intn(1000000))
	if len(e.Descriptions) == 0 {
		e.Descriptions = []cve.Description{{Source: "cve@mitre.org"}}
	}
	e.Descriptions[0].Value += " " + m
	return e, m
}

func (p *poster) single() post {
	e, m := p.edit(map[string]bool{}, true)
	return p.emit("edit", []*cve.Entry{e}, e.ID, m)
}

// daily is a daily-update-shaped batch: new v2-only CVEs whose vendors
// are existing canonical names or their alias spellings, plus edits.
func (p *poster) daily() post {
	var entries []*cve.Entry
	taken := map[string]bool{}
	day := p.captured.Add(time.Duration(p.n+1) * 24 * time.Hour)
	var probe, marker string
	for j := 0; j < dailyAdds; j++ {
		t := p.cur[p.v2only[p.r.Intn(len(p.v2only))]].Clone()
		t.ID = cve.FormatID(2018, p.nextSeq)
		p.nextSeq++
		t.Published, t.LastModified = day, day
		t.V3, t.PV3 = nil, nil
		for i := range t.CPEs {
			vn := p.names[p.r.Intn(len(p.names))]
			t.CPEs[i].Vendor = vn.vendor
			t.CPEs[i].Product = vn.products[p.r.Intn(len(vn.products))]
		}
		m := fmt.Sprintf("%s %d-%d", dailyMarker, p.n, j)
		if len(t.Descriptions) == 0 {
			t.Descriptions = []cve.Description{{Source: "cve@mitre.org"}}
		}
		t.Descriptions[0].Value += " " + m
		if j == 0 {
			probe, marker = t.ID, m
		}
		entries = append(entries, t)
	}
	for j := 0; j < dailyEdits; j++ {
		e, _ := p.edit(taken, false)
		entries = append(entries, e)
	}
	return p.emit("daily", entries, probe, marker)
}

// retrain edits a dual-labeled entry's v3 vector to another entry's
// vector with a different base score: the training dataset's
// fingerprint shifts, so the engine cannot carry over.
func (p *poster) retrain() post {
	id := p.dual[p.r.Intn(len(p.dual))]
	e := p.cur[id].Clone()
	for {
		o := p.cur[p.dual[p.r.Intn(len(p.dual))]]
		if o.V3.BaseScore() != e.V3.BaseScore() {
			v := *o.V3
			e.V3 = &v
			break
		}
	}
	m := fmt.Sprintf("%s %d-retrain", editMarker, p.n)
	e.Descriptions[0].Value += " " + m
	return p.emit("retrain", []*cve.Entry{e}, e.ID, m)
}

// emit encodes entries as an NVD JSON 1.1 feed, counts how many differ
// from the running view (the daemon's upsert delta size), and advances
// the view.
func (p *poster) emit(kind string, entries []*cve.Entry, probe, marker string) post {
	p.n++
	changed := 0
	for _, e := range entries {
		if prev := p.cur[e.ID]; prev == nil || !prev.Equal(e) {
			changed++
		}
		if p.cur[e.ID] == nil && e.V2 != nil && e.V3 == nil {
			p.v2only = append(p.v2only, e.ID)
		}
		p.cur[e.ID] = e
	}
	var buf bytes.Buffer
	upd := &cve.Snapshot{CapturedAt: p.captured.Add(time.Duration(p.n) * time.Minute), Entries: entries}
	if err := cve.WriteFeedCompact(&buf, upd); err != nil {
		panic(err) // in-memory encoding of generated entries cannot fail
	}
	return post{kind: kind, body: buf.Bytes(), changed: changed, probeID: probe, marker: marker}
}

// readOp is one GET: a path and whether it carries If-None-Match.
type readOp struct {
	cve  bool
	path string
	cond bool
}

// mixSpec is one workload's read mix: cveShare of the requests are
// /cve (zipf-keyed over a seeded permutation of IDs, or uniform), the
// rest /query uniform over queries; condShare carry a validator.
type mixSpec struct {
	cveShare, condShare float64
	zipf                bool
	queries             []string
}

// hotMix is read-hot's mix, also read from the replica on
// ingest-replicated; coldMix is query-cold's, which never revalidates
// so every /query reaches the cache and, on a miss, the index.
func (in *inputs) hotMix() mixSpec {
	return mixSpec{cveShare: 0.6, condShare: 0.5, zipf: true, queries: in.hot}
}

func (in *inputs) coldMix() mixSpec { return mixSpec{cveShare: 0.2, queries: in.cold} }

// readMix draws one connection's read stream.
type readMix struct {
	mixSpec
	r    *rand.Rand
	zipf *rand.Zipf
	ids  []string
}

func newReadMix(in *inputs, stream string, spec mixSpec) *readMix {
	r := rand.New(rand.NewSource(streamSeed(in.seed, stream)))
	ids := append([]string(nil), in.ids...)
	m := &readMix{mixSpec: spec, r: r, ids: ids}
	if spec.zipf {
		// The permutation comes from a seed shared by every stream of
		// one workload, so its connections agree on which IDs are hot.
		pr := rand.New(rand.NewSource(streamSeed(in.seed, "hot-ids")))
		pr.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		m.zipf = rand.NewZipf(r, zipfS, 1, uint64(len(ids)-1))
	}
	return m
}

func (m *readMix) next() readOp {
	op := readOp{cond: m.r.Float64() < m.condShare}
	if m.r.Float64() < m.cveShare {
		op.cve = true
		var i int
		if m.zipf != nil {
			i = int(m.zipf.Uint64())
		} else {
			i = m.r.Intn(len(m.ids))
		}
		op.path = "/cve/" + m.ids[i]
		return op
	}
	op.path = m.queries[m.r.Intn(len(m.queries))]
	return op
}
