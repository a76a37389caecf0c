package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// newClient returns an HTTP client holding exactly one connection, so a
// worker is one connection and its requests queue behind each other.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// checker collects correctness violations and what each (path, ETag)
// pair served: a strong validator must always name the same bytes.
type checker struct {
	mu         sync.Mutex
	violations []string
	bodies     map[string]uint64
}

func newChecker() *checker { return &checker{bodies: make(map[string]uint64)} }

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

func (c *checker) failed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.violations)
}

// consistent records body as what path served under etag and reports
// whether it matches what that pair served before.
func (c *checker) consistent(path, etag string, body []byte) bool {
	h := fnv.New64a()
	h.Write(body)
	sum := h.Sum64()
	c.mu.Lock()
	defer c.mu.Unlock()
	k := path + "\x00" + etag
	if prev, ok := c.bodies[k]; ok {
		return prev == sum
	}
	c.bodies[k] = sum
	return true
}

// position parses a store-backed ETag "w<seq>-<off>" into a comparable
// stream position (seq, off); ok is false for other validators.
func position(etag string) (pos [2]int64, ok bool) {
	s := strings.Trim(etag, `"`)
	if !strings.HasPrefix(s, "w") {
		return pos, false
	}
	seq, off, found := strings.Cut(s[1:], "-")
	if !found {
		return pos, false
	}
	a, err1 := strconv.ParseInt(seq, 10, 64)
	b, err2 := strconv.ParseInt(off, 10, 64)
	return [2]int64{a, b}, err1 == nil && err2 == nil
}

func posLess(a, b [2]int64) bool { return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1]) }

// seen is one read response's completion time and ETag position.
type seen struct {
	at  time.Time
	pos [2]int64
}

// reader is one open-loop read connection: op i is due at
// start + offset + i*interval and its latency runs from that due time,
// so a stall charges every request queued behind it.
type reader struct {
	client   *http.Client
	base     string
	mix      *readMix
	check    *checker
	fixedTag string // the only valid ETag when the workload has no writes
	etag     string // last validator this connection saw

	cve, query timing
	lateness   []float64 // ms a send trailed its due time with the connection idle
	attempted  int
	track      bool // record every response's position in seen
	seen       []seen
	bodyBytes  int
}

// run drives the stream from start until end at one op per interval.
func (r *reader) run(start, end time.Time, offset, interval time.Duration) {
	prevDone := start
	for i := 0; ; i++ {
		due := start.Add(offset + time.Duration(i)*interval)
		if !due.Before(end) {
			return
		}
		sleepUntil(due)
		sent := time.Now()
		idleFrom := due
		if prevDone.After(idleFrom) {
			idleFrom = prevDone
		}
		if sent.After(idleFrom) {
			r.lateness = append(r.lateness, float64(sent.Sub(idleFrom))/1e6)
		} else {
			r.lateness = append(r.lateness, 0)
		}
		op := r.mix.next()
		prevDone = r.do(op)
		if op.cve {
			r.cve.add(prevDone.Sub(due))
		} else {
			r.query.add(prevDone.Sub(due))
		}
	}
}

// do sends one read and checks the answer: 200 or 304 only, a 304 only
// for a validator equal to the ETag the server answers with, a 200
// never for a matching validator, and equal bytes for equal ETags. It
// returns when the response was fully read, before the checks, so the
// generator's own checking is not timed as latency.
func (r *reader) do(op readOp) (done time.Time) {
	r.attempted++
	req, _ := http.NewRequest("GET", r.base+op.path, nil)
	inm := ""
	if op.cond && r.etag != "" {
		inm = r.etag
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		r.check.fail("GET %s: %v", op.path, err)
		return time.Now()
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done = time.Now()
	if err != nil {
		r.check.fail("GET %s: reading body: %v", op.path, err)
		return done
	}
	etag := resp.Header.Get("ETag")
	switch resp.StatusCode {
	case http.StatusOK:
		switch {
		case inm != "" && etag == inm:
			r.check.fail("GET %s: 200 for a matching validator %s", op.path, inm)
		case r.fixedTag != "" && etag != r.fixedTag:
			r.check.fail("GET %s: ETag %s, want %s", op.path, etag, r.fixedTag)
		case op.cve && !strings.Contains(string(body), `"id":"`+strings.TrimPrefix(op.path, "/cve/")+`"`):
			r.check.fail("GET %s: body names another entry", op.path)
		case !op.cve && !strings.HasPrefix(string(body), `{"total":`):
			r.check.fail("GET %s: body is not a query page", op.path)
		case !r.check.consistent(op.path, etag, body):
			r.check.fail("GET %s: ETag %s served different bytes", op.path, etag)
		}
		r.bodyBytes += len(body)
	case http.StatusNotModified:
		if inm == "" || etag != inm {
			r.check.fail("GET %s: 304 with ETag %s for validator %q", op.path, etag, inm)
		}
	default:
		r.check.fail("GET %s: status %d", op.path, resp.StatusCode)
		return done
	}
	r.etag = etag
	if r.track {
		if pos, ok := position(etag); ok {
			r.seen = append(r.seen, seen{at: done, pos: pos})
		}
	}
	return done
}

// get fetches path outside the timed stream.
func get(client *http.Client, url string) (int, string, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("ETag"), body, err
}

// sleepUntil blocks until t. The runtime's timers wake up to about a
// millisecond late, as long as a cache hit takes to serve, so the wait
// is a nanosleep system call, which wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}
