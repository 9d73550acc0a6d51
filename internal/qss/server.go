package qss

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/oemio"
	"repro/internal/repl"
	"repro/internal/timestamp"
	"repro/internal/wal"
	"repro/internal/wrapper"
)

// The QSS wire protocol (Figure 7's QSS/QSC split) is JSON-lines over TCP:
// the client sends one request object per line, the server replies with one
// response per request and pushes notification, health and heartbeat
// objects asynchronously. See docs/qss-protocol.md.

// Request is a client -> server message.
type Request struct {
	Op         string `json:"op"` // subscribe | unsubscribe | list | poll | ping | status
	Name       string `json:"name,omitempty"`
	Source     string `json:"source,omitempty"` // server-side source name
	SourceName string `json:"source_name,omitempty"`
	Polling    string `json:"polling,omitempty"`
	Filter     string `json:"filter,omitempty"`
	Freq       string `json:"freq,omitempty"`
	Time       string `json:"time,omitempty"` // manual poll time
	// Resume, on subscribe, adopts an orphaned subscription of the same
	// name (left behind by a dropped connection within its linger window)
	// instead of failing with a duplicate error. Buffered notifications
	// are replayed on adoption.
	Resume bool `json:"resume,omitempty"`
}

// Response is a server -> client message. Exactly one of the payload
// fields is set, per the request op; Notification, Health, Heartbeat and
// Gap are used for asynchronous pushes (Seq 0).
type Response struct {
	Seq          int64             `json:"seq"`
	OK           bool              `json:"ok"`
	Error        string            `json:"error,omitempty"`
	Names        []string          `json:"names,omitempty"`
	Notification *WireNotification `json:"notification,omitempty"`
	// Health reports a subscription health-state transition.
	Health *WireHealth `json:"health,omitempty"`
	// Heartbeat marks an idle keep-alive push carrying nothing else.
	Heartbeat bool `json:"heartbeat,omitempty"`
	// Gap, on resume, counts notifications dropped while the
	// subscription was orphaned and its replay buffer overflowed.
	Gap int `json:"gap,omitempty"`
	// Resumed, on a subscribe ack, reports that an orphaned subscription
	// was adopted (notification sequence continues) rather than a fresh
	// one created (sequence restarts from 1, e.g. after a server
	// restart) — clients reset their dedupe watermark when false.
	Resumed bool `json:"resumed,omitempty"`
	// Redirect, on an error response from a replica, carries the
	// primary's advertised address: clients should reconnect there.
	Redirect string `json:"redirect,omitempty"`
	// Repl answers a status request on a replicated server.
	Repl *WireReplStatus `json:"repl,omitempty"`
}

// WireReplStatus is a replicated server's status (op "status"): its role
// and the staleness bound a read replica serves under — every record
// through Applied is reflected in reads, LagSeq records are known to
// exist beyond that, and AppliedAt timestamps the newest applied record.
type WireReplStatus struct {
	Role      string `json:"role"`
	Epoch     uint64 `json:"epoch"`
	Fenced    bool   `json:"fenced,omitempty"`
	Applied   uint64 `json:"applied"`
	Commit    uint64 `json:"commit"`
	LagSeq    uint64 `json:"lag_seq"`
	AppliedAt string `json:"applied_at,omitempty"`
	Primary   string `json:"primary,omitempty"`
}

// WireNotification is a notification serialized for the wire.
type WireNotification struct {
	Subscription string `json:"subscription"`
	At           string `json:"at"`
	// Seq is the server-assigned per-subscription notification sequence
	// (1, 2, ...); reconnecting clients dedupe replayed notifications
	// by it.
	Seq    uint64          `json:"nseq,omitempty"`
	Answer json.RawMessage `json:"answer"`
}

// WireHealth is a health-state transition serialized for the wire.
type WireHealth struct {
	Subscription string `json:"subscription"`
	From         string `json:"from"`
	To           string `json:"to"`
	At           string `json:"at"`
	Error        string `json:"error,omitempty"`
	Failures     int    `json:"failures,omitempty"`
}

// ServerConfig tunes the server's fault-tolerance behavior. The zero
// value reproduces the historical behavior (no deadlines, no heartbeats,
// immediate subscription cleanup on disconnect) with sane message-size
// and buffer defaults.
type ServerConfig struct {
	// Retry drives poll retry/backoff and subscription health; zero
	// fields take DefaultRetryPolicy values.
	Retry RetryPolicy
	// Seed seeds deterministic retry jitter.
	Seed int64
	// HeartbeatInterval, when positive, pushes an idle keep-alive to
	// every connection at this cadence so clients can detect dead
	// servers via a read deadline.
	HeartbeatInterval time.Duration
	// IdleTimeout, when positive, drops connections that send nothing
	// for this long. Clients must ping (see Client.Ping) at a shorter
	// interval to stay connected.
	IdleTimeout time.Duration
	// WriteTimeout, when positive, bounds each message write so one
	// stalled client cannot wedge deliveries.
	WriteTimeout time.Duration
	// MaxMessage bounds a request line's size in bytes (default 1 MiB).
	// Oversized lines get an error response and the connection
	// resynchronizes at the next newline.
	MaxMessage int
	// Linger keeps a disconnected client's subscriptions alive (polling,
	// accumulating history, buffering notifications) for this long so a
	// reconnecting client can resume them. 0 drops them immediately.
	Linger time.Duration
	// NotifyBuffer bounds the per-subscription notification replay
	// buffer while orphaned (default 256; oldest dropped first).
	NotifyBuffer int
}

const (
	defaultMaxMessage   = 1 << 20
	defaultNotifyBuffer = 256
)

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxMessage <= 0 {
		c.MaxMessage = defaultMaxMessage
	}
	if c.NotifyBuffer <= 0 {
		c.NotifyBuffer = defaultNotifyBuffer
	}
	return c
}

// Server hosts a Service over TCP. Sources are registered server-side by
// name; clients reference them in subscribe requests.
type Server struct {
	svc     *Service
	sched   *Scheduler
	clock   Clock
	sources map[string]wrapper.Source
	cfg     ServerConfig
	// repl, when set via EnableReplication, gates mutating ops on the
	// node's role: replicas redirect clients to the primary's advertised
	// address, and promotion takes effect on the next request.
	repl *repl.Node

	mu      sync.Mutex
	subs    map[string]*subRecord // subscription -> ownership record
	conns   map[*conn]struct{}
	ln      net.Listener
	closing bool
	wg      sync.WaitGroup
}

// subRecord tracks one subscription's connection ownership and delivery
// state. Guarded by Server.mu.
type subRecord struct {
	owner     *conn // nil while orphaned
	scheduled bool  // a frequency poller is running
	nseq      uint64
	buf       []*Response // pushes buffered while orphaned
	dropped   int         // pushes evicted from buf
	linger    *time.Timer // orphan expiry
}

// buffer queues a push for replay on resume, evicting the oldest beyond
// the cap.
func (r *subRecord) buffer(resp *Response, cap int) {
	if len(r.buf) >= cap {
		r.buf = r.buf[1:]
		r.dropped++
	}
	r.buf = append(r.buf, resp)
}

type conn struct {
	c            net.Conn
	enc          *json.Encoder
	writeTimeout time.Duration
	mu           sync.Mutex
}

func (c *conn) send(r *Response) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.writeTimeout > 0 {
		_ = c.c.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
	return c.enc.Encode(r)
}

// NewServer builds a QSS server over the given sources, polling with
// clock, with the default (zero) ServerConfig.
func NewServer(sources map[string]wrapper.Source, clock Clock) *Server {
	return NewServerWith(sources, clock, ServerConfig{})
}

// NewServerWith builds a QSS server with explicit fault-tolerance
// configuration.
func NewServerWith(sources map[string]wrapper.Source, clock Clock, cfg ServerConfig) *Server {
	s := &Server{
		clock:   clock,
		sources: sources,
		cfg:     cfg.withDefaults(),
		subs:    make(map[string]*subRecord),
		conns:   make(map[*conn]struct{}),
	}
	s.svc = NewService(s.deliver)
	s.sched = NewSchedulerWith(s.svc, clock, SchedulerOptions{
		Policy:   cfg.Retry,
		Seed:     cfg.Seed,
		OnHealth: s.deliverHealth,
	})
	// Computed gauges read server state at snapshot time (the registry
	// evaluates them outside its lock, so taking s.mu here is safe). A
	// later server re-registers the names, which is the right behavior for
	// the one-server-per-process deployments cmd/qss runs.
	obs.RegisterGaugeFunc("qss_linger_buffered", s.lingerBuffered)
	obs.RegisterGaugeFunc("qss_orphaned_subscriptions", func() int64 {
		return int64(len(s.Orphaned()))
	})
	return s
}

// lingerBuffered reports the total number of pushes buffered for orphaned
// subscriptions awaiting resume — the linger-buffer depth gauge.
func (s *Server) lingerBuffered() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, rec := range s.subs {
		if rec.owner == nil {
			n += int64(len(rec.buf))
		}
	}
	return n
}

// HealthStates reports the health state of every scheduled subscription
// as strings, for the admin /healthz endpoint.
func (s *Server) HealthStates() map[string]string {
	states := s.sched.States()
	out := make(map[string]string, len(states))
	for name, h := range states {
		out[name] = h.String()
	}
	return out
}

// Service exposes the underlying service (for in-process use and tests).
func (s *Server) Service() *Service { return s.svc }

// Health reports the poll-health state of a scheduled subscription.
func (s *Server) Health(name string) Health { return s.sched.Health(name) }

// Orphaned lists subscriptions currently in their linger window (owned by
// no connection), sorted.
func (s *Server) Orphaned() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	for name, rec := range s.subs {
		if rec.owner == nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// EnableWAL turns on per-subscription write-ahead logging (see
// Service.EnableWAL). Call before serving.
func (s *Server) EnableWAL(dir string, opt *wal.Options) error {
	return s.svc.EnableWAL(dir, opt)
}

// EnableReplication routes every poll through node (see
// Service.EnableReplication) and gates the wire protocol on the node's
// role: while the node is not primary, mutating ops (subscribe,
// unsubscribe, poll) fail with a redirect to the primary's advertised
// address, and read ops (list, status, ping) keep serving. Call before
// serving.
func (s *Server) EnableReplication(node *repl.Node) error {
	if err := s.svc.EnableReplication(node); err != nil {
		return err
	}
	s.mu.Lock()
	s.repl = node
	s.mu.Unlock()
	return nil
}

// replNode returns the replication node, nil when replication is off.
func (s *Server) replNode() *repl.Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repl
}

// notPrimary builds the redirect response a replica answers mutating ops
// with; nil when this server may accept the op.
func (s *Server) notPrimary() *Response {
	node := s.replNode()
	if node == nil || node.Role() == repl.RolePrimary {
		return nil
	}
	return &Response{
		Error:    "qss: not primary (read replica)",
		Redirect: node.PrimaryAddr(),
	}
}

// deliver pushes a notification to the owning connection, or buffers it
// for replay while the subscription is orphaned.
func (s *Server) deliver(n Notification) {
	answer, err := oemio.Marshal(n.Answer)
	if err != nil {
		return
	}
	s.mu.Lock()
	rec := s.subs[n.Subscription]
	if rec == nil {
		s.mu.Unlock()
		return
	}
	rec.nseq++
	resp := &Response{OK: true, Notification: &WireNotification{
		Subscription: n.Subscription,
		At:           n.At.String(),
		Seq:          rec.nseq,
		Answer:       answer,
	}}
	owner := rec.owner
	if owner == nil {
		rec.buffer(resp, s.cfg.NotifyBuffer)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	_ = owner.send(resp)
}

// deliverHealth pushes a health transition to the owning connection, or
// buffers it alongside notifications while orphaned.
func (s *Server) deliverHealth(ev HealthEvent) {
	wh := &WireHealth{
		Subscription: ev.Subscription,
		From:         ev.From.String(),
		To:           ev.To.String(),
		At:           ev.At.String(),
		Failures:     ev.Failures,
	}
	if ev.Err != nil {
		wh.Error = ev.Err.Error()
	}
	resp := &Response{OK: true, Health: wh}
	s.mu.Lock()
	rec := s.subs[ev.Subscription]
	if rec == nil {
		s.mu.Unlock()
		return
	}
	owner := rec.owner
	if owner == nil {
		rec.buffer(resp, s.cfg.NotifyBuffer)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	_ = owner.send(resp)
}

// Serve accepts connections on ln until Close. Temporary accept errors
// (in the net.Error sense: EMFILE, ECONNABORTED, ...) are retried with
// capped backoff instead of wedging the server.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	closing := s.closing
	s.mu.Unlock()
	if closing {
		ln.Close()
		return
	}
	const (
		minAcceptBackoff = 5 * time.Millisecond
		maxAcceptBackoff = time.Second
	)
	backoff := minAcceptBackoff
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.isClosing() || errors.Is(err, net.ErrClosed) {
				return
			}
			if isTemporary(err) {
				time.Sleep(backoff)
				backoff *= 2
				if backoff > maxAcceptBackoff {
					backoff = maxAcceptBackoff
				}
				continue
			}
			return
		}
		backoff = minAcceptBackoff
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(nc)
		}()
	}
}

func (s *Server) isClosing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closing
}

// isTemporary reports whether err advertises itself as transient. The
// check uses a local interface so it keeps working however the stdlib
// evolves net.Error.
func isTemporary(err error) bool {
	var te interface{ Temporary() bool }
	if errors.As(err, &te) {
		return te.Temporary()
	}
	return false
}

// Close stops the server immediately: listener, pollers, connections,
// then the service (flushing and closing any write-ahead logs).
func (s *Server) Close() { s.Shutdown(0) }

// Shutdown stops the server gracefully: stop accepting, stop pollers,
// then give connected clients up to drain to disconnect on their own
// before severing them. The service (and its write-ahead logs) is closed
// last, after every in-flight delivery has finished.
func (s *Server) Shutdown(drain time.Duration) {
	s.mu.Lock()
	alreadyClosing := s.closing
	s.closing = true
	ln := s.ln
	var timers []*time.Timer
	for _, rec := range s.subs {
		if rec.linger != nil {
			timers = append(timers, rec.linger)
			rec.linger = nil
		}
	}
	s.mu.Unlock()
	if alreadyClosing {
		return
	}
	for _, t := range timers {
		t.Stop()
	}
	if ln != nil {
		ln.Close()
	}
	s.sched.StopAll()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if drain > 0 {
		select {
		case <-done:
		case <-time.After(drain):
		}
	}
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.c.Close()
	}
	<-done
	s.svc.Close()
}

func (s *Server) handle(nc net.Conn) {
	defer nc.Close()
	cn := &conn{
		c:            nc,
		enc:          json.NewEncoder(&countingWriter{w: nc, c: mWireSent}),
		writeTimeout: s.cfg.WriteTimeout,
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return
	}
	s.conns[cn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, cn)
		s.mu.Unlock()
	}()

	// Idle heartbeats let clients with a read deadline detect a dead
	// server (and keep middleboxes from reaping quiet connections).
	if hb := s.cfg.HeartbeatInterval; hb > 0 {
		stopHB := make(chan struct{})
		defer close(stopHB)
		go func() {
			t := time.NewTicker(hb)
			defer t.Stop()
			for {
				select {
				case <-stopHB:
					return
				case <-t.C:
					if cn.send(&Response{OK: true, Heartbeat: true}) != nil {
						return
					}
				}
			}
		}()
	}

	var owned []string
	defer func() {
		// The client is gone: orphan its subscriptions for the linger
		// window (resumable) or drop them immediately.
		s.releaseOwned(cn, owned)
	}()

	br := bufio.NewReader(&countingReader{r: nc, c: mWireRecv})
	var seq int64
	for {
		if s.cfg.IdleTimeout > 0 {
			_ = nc.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		line, tooLong, err := readLine(br, s.cfg.MaxMessage)
		if err != nil {
			return
		}
		if !tooLong && len(bytes.TrimSpace(line)) == 0 {
			continue // blank lines don't consume a sequence number
		}
		seq++
		var resp *Response
		if tooLong {
			resp = &Response{Error: fmt.Sprintf("qss: request exceeds %d-byte limit", s.cfg.MaxMessage)}
		} else {
			var req Request
			if uerr := json.Unmarshal(line, &req); uerr != nil {
				resp = &Response{Error: "qss: malformed request: " + uerr.Error()}
			} else {
				resp = s.dispatchSafe(cn, &req, &owned)
			}
		}
		resp.Seq = seq
		if cn.send(resp) != nil {
			return
		}
	}
}

// readLine reads one newline-terminated line, enforcing the size limit.
// An oversized line is consumed through its terminator and reported via
// tooLong, so the connection resynchronizes at the next line instead of
// dying.
func readLine(br *bufio.Reader, max int) (line []byte, tooLong bool, err error) {
	for {
		frag, err := br.ReadSlice('\n')
		if len(frag) > 0 && !tooLong {
			line = append(line, frag...)
			if len(line) > max {
				tooLong, line = true, nil
			}
		}
		switch err {
		case nil:
			if tooLong {
				return nil, true, nil
			}
			return bytes.TrimSuffix(line, []byte("\n")), false, nil
		case bufio.ErrBufferFull:
			continue
		default:
			return nil, tooLong, err
		}
	}
}

// releaseOwned detaches a closed connection from its subscriptions.
func (s *Server) releaseOwned(cn *conn, owned []string) {
	for _, name := range owned {
		s.mu.Lock()
		rec := s.subs[name]
		if rec == nil || rec.owner != cn {
			// Unsubscribed, or already resumed by a newer connection.
			s.mu.Unlock()
			continue
		}
		rec.owner = nil
		if s.cfg.Linger > 0 && !s.closing {
			nm := name
			rec.linger = time.AfterFunc(s.cfg.Linger, func() { s.expire(nm) })
			s.mu.Unlock()
			continue
		}
		delete(s.subs, name)
		s.mu.Unlock()
		s.drop(name)
	}
}

// expire finalizes an orphaned subscription whose linger window lapsed
// without a resume.
func (s *Server) expire(name string) {
	s.mu.Lock()
	rec := s.subs[name]
	if rec == nil || rec.owner != nil {
		s.mu.Unlock()
		return
	}
	delete(s.subs, name)
	s.mu.Unlock()
	s.drop(name)
}

func (s *Server) drop(name string) {
	s.sched.Stop(name)
	_ = s.svc.Unsubscribe(name)
}

// dispatchSafe contains panics from request handling (a panicking source
// wrapper, a packaging bug) to an error response on this request, keeping
// the connection and the server alive.
func (s *Server) dispatchSafe(cn *conn, req *Request, owned *[]string) (resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			resp = &Response{Error: fmt.Sprintf("qss: internal error: %v", r)}
		}
	}()
	return s.dispatch(cn, req, owned)
}

func (s *Server) dispatch(cn *conn, req *Request, owned *[]string) *Response {
	fail := func(err error) *Response { return &Response{Error: err.Error()} }
	switch req.Op {
	case "subscribe", "unsubscribe", "poll":
		// Mutating ops run on the primary only; replicas redirect.
		if resp := s.notPrimary(); resp != nil {
			return resp
		}
	}
	switch req.Op {
	case "subscribe":
		if req.Resume {
			if resp, handled := s.tryResume(cn, req, owned); handled {
				return resp
			}
		}
		src, ok := s.sources[req.Source]
		if !ok {
			return fail(fmt.Errorf("qss: unknown source %q", req.Source))
		}
		sub := Subscription{
			Name:       req.Name,
			SourceName: req.SourceName,
			Source:     src,
			Polling:    req.Polling,
			Filter:     req.Filter,
		}
		if req.Freq != "" {
			f, err := ParseFreq(req.Freq)
			if err != nil {
				return fail(err)
			}
			sub.Freq = f
		}
		if err := s.svc.Subscribe(sub); err != nil {
			return fail(err)
		}
		s.mu.Lock()
		s.subs[req.Name] = &subRecord{owner: cn, scheduled: sub.Freq != nil}
		s.mu.Unlock()
		*owned = append(*owned, req.Name)
		if sub.Freq != nil {
			s.sched.Start(req.Name, sub.Freq)
		}
		return &Response{OK: true}
	case "unsubscribe":
		s.mu.Lock()
		if rec := s.subs[req.Name]; rec != nil {
			if rec.linger != nil {
				rec.linger.Stop()
			}
			delete(s.subs, req.Name)
		}
		s.mu.Unlock()
		s.sched.Stop(req.Name)
		if err := s.svc.Unsubscribe(req.Name); err != nil {
			return fail(err)
		}
		return &Response{OK: true}
	case "list":
		return &Response{OK: true, Names: s.svc.List()}
	case "poll":
		t := s.clock.Now()
		if req.Time != "" {
			var err error
			t, err = timestamp.Parse(req.Time)
			if err != nil {
				return fail(err)
			}
		}
		if _, err := s.svc.Poll(req.Name, t); err != nil {
			return fail(err)
		}
		return &Response{OK: true}
	case "ping":
		return &Response{OK: true}
	case "status":
		resp := &Response{OK: true}
		if node := s.replNode(); node != nil {
			st := node.Status()
			resp.Repl = &WireReplStatus{
				Role:      st.Role.String(),
				Epoch:     st.Epoch,
				Fenced:    st.Fenced,
				Applied:   st.Applied,
				Commit:    st.Commit,
				LagSeq:    st.LagSeq,
				AppliedAt: st.AppliedAt.String(),
				Primary:   st.PrimaryAddr,
			}
		}
		return resp
	default:
		return fail(errors.New("qss: unknown op"))
	}
}

// tryResume adopts an orphaned subscription of the same name, replaying
// buffered pushes. handled is false when there is nothing to resume and
// the request should fall through to a fresh subscribe.
func (s *Server) tryResume(cn *conn, req *Request, owned *[]string) (*Response, bool) {
	s.mu.Lock()
	rec := s.subs[req.Name]
	if rec == nil {
		s.mu.Unlock()
		return nil, false
	}
	if rec.owner != nil {
		s.mu.Unlock()
		return &Response{Error: fmt.Sprintf("%v: %q", ErrDuplicate, req.Name)}, true
	}
	if rec.linger != nil {
		rec.linger.Stop()
		rec.linger = nil
	}
	rec.owner = cn
	backlog := rec.buf
	rec.buf = nil
	dropped := rec.dropped
	rec.dropped = 0
	s.mu.Unlock()
	*owned = append(*owned, req.Name)
	if dropped > 0 {
		_ = cn.send(&Response{OK: true, Gap: dropped})
	}
	for _, r := range backlog {
		if cn.send(r) != nil {
			break
		}
	}
	return &Response{OK: true, Resumed: true}, true
}
