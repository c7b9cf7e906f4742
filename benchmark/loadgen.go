package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// Load generator settings.
const (
	conns           = 2           // HTTP connections, one per core
	clientTimeout   = time.Second // a later answer counts as failed
	p99LimitMS      = 5.0         // latency limit of the max-rate search
	latenessLimitMS = 1.0         // generator lateness p99 beyond which a fixed-rate phase is reported late
)

// httpConn is one keep-alive HTTP/1.1 connection that writes pre-rendered
// requests and reads Content-Length answers. Doing no more than that keeps
// the generator's cost per request far below the server's, so the serving
// numbers measure the server.
type httpConn struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	body []byte
}

// post sends one request rendered by renderRequest and returns the body of
// a 200 answer, valid until the next call. Any failure drops the
// connection, so a late answer is never read as the next request's.
func (c *httpConn) post(req []byte) ([]byte, error) {
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return nil, err
		}
		c.conn, c.br = conn, bufio.NewReader(conn)
	}
	body, err := c.roundTrip(req)
	if err != nil {
		c.close()
	}
	return body, err
}

func (c *httpConn) roundTrip(req []byte) ([]byte, error) {
	if err := c.conn.SetDeadline(time.Now().Add(clientTimeout)); err != nil {
		return nil, err
	}
	if _, err := c.conn.Write(req); err != nil {
		return nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return nil, fmt.Errorf("malformed status line %q", line)
	}
	status := string(line[9:12])
	length := -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		if len(bytes.TrimSpace(line)) == 0 {
			break
		}
		if k, v, ok := bytes.Cut(line, []byte(":")); ok && bytes.EqualFold(k, []byte("Content-Length")) {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return nil, fmt.Errorf("malformed Content-Length %q", v)
			}
		}
	}
	if length < 0 {
		return nil, errors.New("answer without Content-Length")
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return nil, err
	}
	if status != "200" {
		return nil, fmt.Errorf("status %s: %s", status, bytes.TrimSpace(c.body))
	}
	return c.body, nil
}

func (c *httpConn) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.br = nil, nil
	}
}

// renderRequest renders a complete POST /classify request.
func renderRequest(host, contentType string, body []byte) []byte {
	req := fmt.Appendf(nil, "POST /classify HTTP/1.1\r\nHost: %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		host, contentType, len(body))
	return append(req, body...)
}

// phaseResult is one open-loop phase: every request's due, send and
// completion time relative to the phase start, whether it succeeded, and
// how late the generator released it.
type phaseResult struct {
	rate                float64
	due, sent, done     []time.Duration
	ok                  []bool
	lateness            []time.Duration
	outsideSum          time.Duration // Σ done − sent over successful requests
	successes, failures int
}

// openLoop offers reqs at rate req/s on a fixed schedule. The generator
// releases each request at its due time into a queue that the connections
// drain, so a slow server delays later requests instead of slowing the
// schedule; latency is timed from the due time.
func openLoop(cs []*httpConn, reqs [][]byte, rate float64) phaseResult {
	n := len(reqs)
	interval := time.Duration(float64(time.Second) / rate)
	p := phaseResult{
		rate:     rate,
		due:      make([]time.Duration, n),
		sent:     make([]time.Duration, n),
		done:     make([]time.Duration, n),
		ok:       make([]bool, n),
		lateness: make([]time.Duration, n),
	}
	jobs := make(chan int, n) // sized to the number of sends: release never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				p.sent[i] = time.Since(start)
				_, err := c.post(reqs[i])
				p.done[i] = time.Since(start)
				p.ok[i] = err == nil
			}
		}()
	}
	for i := range reqs {
		p.due[i] = time.Duration(i) * interval
		if wait := p.due[i] - time.Since(start); wait > 0 {
			// time.Sleep rounds sub-millisecond waits up to about a
			// millisecond on Linux; nanosleep keeps the schedule within
			// tens of microseconds.
			ts := syscall.NsecToTimespec(int64(wait))
			syscall.Nanosleep(&ts, nil)
		}
		p.lateness[i] = time.Since(start) - p.due[i]
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, ok := range p.ok {
		if ok {
			p.successes++
			p.outsideSum += p.done[i] - p.sent[i]
		} else {
			p.failures++
		}
	}
	return p
}

// add appends the requests of another round of the same phase.
func (p *phaseResult) add(q phaseResult) {
	p.rate = q.rate
	p.due = append(p.due, q.due...)
	p.sent = append(p.sent, q.sent...)
	p.done = append(p.done, q.done...)
	p.ok = append(p.ok, q.ok...)
	p.lateness = append(p.lateness, q.lateness...)
	p.outsideSum += q.outsideSum
	p.successes += q.successes
	p.failures += q.failures
}

// quantile of the latency from due time in ms. A failed request counts as
// missing every limit: its latency is at least the client timeout.
func (p phaseResult) quantile(q float64) float64 {
	lat := make([]float64, len(p.due))
	for i := range lat {
		d := p.done[i] - p.due[i]
		if !p.ok[i] {
			d = max(d, clientTimeout)
		}
		lat[i] = ms(d)
	}
	return quantile(lat, q)
}

func (p phaseResult) latenessP99() float64 {
	l := make([]float64, len(p.lateness))
	for i, d := range p.lateness {
		l[i] = ms(d)
	}
	return quantile(l, 0.99)
}

// punctual reports whether the generator kept to the schedule: the latency
// of a phase it released late measures the host's scheduler as well as the
// server.
func (p phaseResult) punctual() bool { return p.latenessP99() <= latenessLimitMS }

// meetsLimit reports whether the phase held p99 within the limit with no
// failures, and ended without a backlog beyond the limit: the last request
// did not wait longer than that for a connection.
func (p phaseResult) meetsLimit() bool {
	last := len(p.due) - 1
	return p.failures == 0 && p.quantile(0.99) <= p99LimitMS && ms(p.sent[last]-p.due[last]) <= p99LimitMS
}

// loopSlice is the interval a closed-loop phase counts completions over; a
// phase is cut into equal slices of about that length.
const loopSlice = 100 * time.Millisecond

// loopResult counts a closed-loop phase: its requests, and the rate of
// successful completions in each slice of it.
type loopResult struct {
	requests, failed int
	sliceRates       []float64 // 1/s
}

// add appends another round of the phase.
func (l *loopResult) add(m loopResult) {
	l.requests += m.requests
	l.failed += m.failed
	l.sliceRates = append(l.sliceRates, m.sliceRates...)
}

// closedLoop keeps every connection busy for the given seconds: each sends
// its next request, cycling through reqs, as soon as the previous answer
// arrives. The completion rate is what the server sustains on conns
// connections; rates per slice let its median pass over a stall of the
// host.
func closedLoop(cs []*httpConn, reqs [][]byte, seconds float64) loopResult {
	var (
		wg      sync.WaitGroup
		counts  = make([]loopResult, len(cs))
		done    = make([][]time.Duration, len(cs)) // completion times of successes
		start   = time.Now()
		horizon = time.Duration(seconds * float64(time.Second))
	)
	for c, conn := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; time.Since(start) < horizon; i += len(cs) {
				counts[c].requests++
				if _, err := conn.post(reqs[i%len(reqs)]); err != nil {
					counts[c].failed++
				} else {
					done[c] = append(done[c], time.Since(start))
				}
			}
		}()
	}
	wg.Wait()
	res := loopResult{}
	perSlice := make([]int, max(1, int(horizon/loopSlice)))
	width := horizon / time.Duration(len(perSlice))
	for c := range cs {
		res.requests += counts[c].requests
		res.failed += counts[c].failed
		for _, d := range done[c] {
			if s := int(d / width); s < len(perSlice) {
				perSlice[s]++
			}
		}
	}
	for _, n := range perSlice {
		res.sliceRates = append(res.sliceRates, float64(n)/width.Seconds())
	}
	return res
}
