package segment

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/oem"
	"repro/internal/symbol"
	"repro/internal/timestamp"
	"repro/internal/value"
	"repro/internal/wal"
)

// On-disk formats. A history directory holds:
//
//	wal/             the active segment's tail log (internal/wal): each
//	                 record one step (change.AppendStep); its checkpoint is
//	                 the store's one commit point (see checkpoint below)
//	seg-NNNNNN.seg   sealed segment N: the pair (base snapshot, steps) of
//	                 its interval (doem.AppendHistory) + orphan arcs
//	seg-NNNNNN.idx   sealed segment N's annotation index (derived, droppable)
//
// The tail checkpoint's payload is the summary of sealed history — per
// committed segment its end bound and the ids of the nodes its index holds
// upd chains for, each with the old value of its first upd there, the id
// high-water mark, the arc registry and the cre, dead and sealed-status
// summaries — followed by the active segment's stored DOEM (doem.Append). A segment is committed once a checkpoint
// counts it: a seal writes its .seg and .idx before that checkpoint, so a
// segment file beyond the count is a leftover of a seal that never
// committed, and Open removes it.
//
// Every segment file is framed by wal.FrameFile (a magic string and a
// trailing CRC-32C of everything before it) and written atomically by
// wal.AtomicWrite, the WAL checkpoint's own discipline: a crash leaves
// either the old file, the new file, or an invisible temp file — never a
// torn one the reader would trust. The .seg file is ground truth
// for its interval; the .idx file is derived from it and rebuilt when it is
// missing, damaged or does not match the checkpoint's bounds.
//
// All varints are unsigned LEB128; snapshots, steps, times and values use
// the internal/change encoders, so the formats share the WAL payload
// encoding end to end.
//
// A tail checkpoint without the payload magic (JSON, a bare DOEM pair, or
// the DCKP1 layout whose snapshots were JSON) and a directory holding a
// STATE file are layouts of earlier versions; Open refuses them with an
// error that names the file. A DSEG1 segment cannot outlive its DCKP1
// checkpoint, which counts it.

var (
	segMagic  = []byte("DSEG2\n")
	idxMagic  = []byte("DIDX1\n")
	ckptMagic = []byte("DCKP2\n")
)

// ErrCorrupt reports a missing or undecodable committed segment file, or
// an undecodable tail checkpoint.
var ErrCorrupt = errors.New("segment: corrupt file")

// maxDecodeCount caps decoded element counts so corrupt length prefixes
// cannot trigger huge allocations (same bound as internal/change).
const maxDecodeCount = 1 << 24

func segFileName(id int) string { return fmt.Sprintf("seg-%06d.seg", id) }
func idxFileName(id int) string { return fmt.Sprintf("seg-%06d.idx", id) }

// segData is the decoded ground truth of one sealed segment: the snapshot
// at the segment's start (the seal-boundary checkpoint), the history steps
// of its interval (start, end], and the orphan arcs frozen live at the
// start. An orphan arc's most recent annotation (in some earlier segment)
// is an add, but node garbage collection removed an endpoint before this
// segment began, so the boundary snapshot omits the arc while the
// monolithic ArcLiveAt keeps it live forever (its chain can never grow
// again). Persisting the orphans makes each segment self-contained: an
// index rebuild cannot recover them from the store summaries,
// which reflect later segments too.
type segData struct {
	id         int
	start, end timestamp.Time
	base       *oem.Database
	steps      change.History
	orphans    []oem.Arc
}

// segIndex is the queryable annotation index of one sealed segment, in
// three sections sorted by key and looked up by binary search: the
// complete set of arcs live at the segment's start (so liveness questions
// about any instant inside the interval resolve against this one segment),
// the time-sorted upd chains keyed by node, and the add/rem chains keyed by
// arc. It holds no map: a load decodes the file's sections, which are
// already in this order, into a few flat slices.
type segIndex struct {
	live []oem.Arc // ascending by compareArcs
	upd  section[oem.NodeID, updAnnot]
	arcs section[oem.Arc, doem.ArcAnnot]
}

// updAnnot is one upd annotation of a sealed chain: its time and the old
// value it recorded.
type updAnnot struct {
	At  timestamp.Time
	Old value.Value
}

// section is a sorted map from keys to annotation chains: keys strictly
// increasing, and chain i is vals[end[i-1]:end[i]] (from 0 for the first).
type section[K, V any] struct {
	keys []K
	end  []int
	vals []V
}

// add appends key k's chain; k must sort after every key added so far.
func (s *section[K, V]) add(k K, chain []V) {
	s.keys = append(s.keys, k)
	s.vals = append(s.vals, chain...)
	s.end = append(s.end, len(s.vals))
}

// chain returns the chain of the key at position i.
func (s *section[K, V]) chain(i int) []V {
	lo := 0
	if i > 0 {
		lo = s.end[i-1]
	}
	return s.vals[lo:s.end[i]:s.end[i]]
}

// find returns k's chain (nil when k has none), by binary search.
func (s *section[K, V]) find(k K, cmp func(K, K) int) []V {
	i, ok := slices.BinarySearchFunc(s.keys, k, cmp)
	if !ok {
		return nil
	}
	return s.chain(i)
}

// liveAtStart reports whether a was live at the segment's start.
func (x *segIndex) liveAtStart(a oem.Arc) bool {
	_, ok := slices.BinarySearchFunc(x.live, a, compareArcs)
	return ok
}

// updChain returns node n's upd annotations in this segment, in time order.
func (x *segIndex) updChain(n oem.NodeID) []updAnnot { return x.upd.find(n, cmp.Compare[oem.NodeID]) }

// arcChain returns arc a's add/rem annotations in this segment, in time
// order.
func (x *segIndex) arcChain(a oem.Arc) []doem.ArcAnnot { return x.arcs.find(a, compareArcs) }

// summary is what sealed history contributes to the store's answers without
// a segment file being read: the global arc registry (every arc ever, per
// parent, in first-insertion order — the monolithic OutAll order), cre
// times and final values of nodes whose annotations have been sealed away
// from the active segment, and the id high-water mark.
type summary struct {
	registry map[oem.NodeID][]oem.Arc
	cre      map[oem.NodeID]timestamp.Time
	dead     map[oem.NodeID]value.Value
	// sealedStatus records, for every arc with at least one annotation in
	// sealed history, the kind of its most recent sealed annotation — the
	// arc's status at the last seal boundary. Arcs absent from both this
	// map and the active chains have no annotations at all and are
	// vacuously live (the monolithic convention).
	sealedStatus map[oem.Arc]doem.AnnotKind
	maxID        oem.NodeID
}

// checkpoint is the tail checkpoint's payload, the store's committed
// state: the handle of every committed segment (its end bound, upd node
// ids and first old values; segment i covers (end of segment i-1, end of segment i], the
// first from -inf), the summary of their history, and the active segment.
type checkpoint struct {
	segs   []*handle
	sum    summary
	active *doem.Database
}

// ---- encoding helpers ----

func appendArc(dst []byte, a oem.Arc) []byte {
	dst = binary.AppendUvarint(dst, uint64(a.Parent))
	dst = change.AppendString(dst, a.Label)
	return binary.AppendUvarint(dst, uint64(a.Child))
}

// decoder reads the fields of a segment, index or checkpoint body in order.
// The first failure sticks: later reads return zero values and read
// nothing, and err is that failure as ErrCorrupt.
type decoder struct {
	b      []byte
	err    error
	labels []string // distinct arc labels read so far (see label)
}

func (d *decoder) fail(what string, cause error) {
	switch {
	case d.err != nil:
	case cause != nil:
		d.err = fmt.Errorf("%w: %s: %v", ErrCorrupt, what, cause)
	default:
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, what)
	}
	d.b = nil
}

func (d *decoder) uvarint(what string) uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(what, nil)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads an element count, capped so a corrupt prefix cannot demand
// a huge allocation.
func (d *decoder) count(what string) int {
	c := d.uvarint(what + " count")
	if c > maxDecodeCount {
		d.fail(what+" count", nil)
		return 0
	}
	return int(c)
}

func (d *decoder) time(what string) timestamp.Time {
	t, n, err := change.DecodeTime(d.b)
	if err != nil {
		d.fail(what, err)
		return timestamp.Time{}
	}
	d.b = d.b[n:]
	return t
}

func (d *decoder) value(what string) value.Value {
	v, n, err := change.DecodeValue(d.b)
	if err != nil {
		d.fail(what, err)
		return value.Value{}
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) str(what string) string {
	s, n, err := change.DecodeString(d.b)
	if err != nil {
		d.fail(what, err)
		return ""
	}
	d.b = d.b[n:]
	return s
}

func (d *decoder) arc() oem.Arc {
	p := d.uvarint("arc parent")
	l := d.label()
	return oem.Arc{Parent: oem.NodeID(p), Label: l, Child: oem.NodeID(d.uvarint("arc child"))}
}

// maxSharedLabels bounds the labels a decoder remembers for sharing; a
// label first read after the bound is allocated for every arc.
const maxSharedLabels = 64

// label reads an arc label. A file repeats a few labels over all its arcs,
// so each distinct label is allocated once per decoder and shared by every
// arc that carries it.
func (d *decoder) label() string {
	l, n := binary.Uvarint(d.b)
	if n <= 0 || l > uint64(len(d.b)-n) {
		d.fail("arc label", nil)
		return ""
	}
	raw := d.b[n : n+int(l)]
	d.b = d.b[n+int(l):]
	for _, s := range d.labels {
		if s == string(raw) {
			return s
		}
	}
	s := string(raw)
	if len(d.labels) < maxSharedLabels {
		d.labels = append(d.labels, s)
	}
	return s
}

// arcKind reads an add (0) or rem (1) byte.
func (d *decoder) arcKind(what string) doem.AnnotKind {
	if len(d.b) == 0 || d.b[0] > 1 {
		d.fail(what, nil)
		return doem.AnnotAdd
	}
	k := d.b[0]
	d.b = d.b[1:]
	if k == 1 {
		return doem.AnnotRem
	}
	return doem.AnnotAdd
}

// done reports the first failure, or trailing bytes after the last field.
func (d *decoder) done() error {
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.b))
	}
	return d.err
}

// ---- segment (.seg) files ----

func encodeSegData(s *segData) []byte {
	var body []byte
	body = binary.AppendUvarint(body, uint64(s.id))
	body = change.AppendTime(body, s.start)
	body = change.AppendTime(body, s.end)
	body = doem.AppendHistory(body, s.base, s.steps)
	body = binary.AppendUvarint(body, uint64(len(s.orphans)))
	for _, a := range s.orphans {
		body = appendArc(body, a)
	}
	return wal.FrameFile(segMagic, body)
}

func decodeSegData(data []byte) (*segData, error) {
	body, err := wal.UnframeFile(segMagic, data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	d := &decoder{b: body}
	s := &segData{id: d.count("segment id"), start: d.time("start"), end: d.time("end")}
	if d.err == nil {
		var n int
		if s.base, s.steps, n, err = doem.DecodeHistory(d.b); err != nil {
			d.fail("history", err)
		} else {
			d.b = d.b[n:]
		}
	}
	for i, n := 0, d.count("orphan arc"); i < n && d.err == nil; i++ {
		s.orphans = append(s.orphans, d.arc())
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return s, nil
}

// ---- index (.idx) files ----

func encodeSegIndex(id int, start, end timestamp.Time, x *segIndex) []byte {
	var body []byte
	body = binary.AppendUvarint(body, uint64(id))
	body = change.AppendTime(body, start)
	body = change.AppendTime(body, end)
	body = binary.AppendUvarint(body, uint64(len(x.live)))
	for _, a := range x.live {
		body = appendArc(body, a)
	}
	body = appendSection(body, &x.upd,
		func(b []byte, n oem.NodeID) []byte { return binary.AppendUvarint(b, uint64(n)) },
		func(b []byte, a updAnnot) []byte { return change.AppendValue(change.AppendTime(b, a.At), a.Old) })
	body = appendSection(body, &x.arcs, appendArc,
		func(b []byte, a doem.ArcAnnot) []byte {
			kind := byte(1)
			if a.Kind == doem.AnnotAdd {
				kind = 0
			}
			return change.AppendTime(append(b, kind), a.At)
		})
	return wal.FrameFile(idxMagic, body)
}

// appendSection writes a chain section: its key count, then per key the
// key, its chain's length and the chain.
func appendSection[K, V any](body []byte, s *section[K, V], key func([]byte, K) []byte, val func([]byte, V) []byte) []byte {
	body = binary.AppendUvarint(body, uint64(len(s.keys)))
	for i, k := range s.keys {
		chain := s.chain(i)
		body = binary.AppendUvarint(key(body, k), uint64(len(chain)))
		for _, v := range chain {
			body = val(body, v)
		}
	}
	return body
}

// decodeSegIndex decodes an index file in one pass. Each section's keys
// must be strictly increasing, the order encodeSegIndex writes; any other
// order is ErrCorrupt, and the caller rebuilds the index from its segment.
func decodeSegIndex(data []byte) (id int, start, end timestamp.Time, x *segIndex, err error) {
	body, err := wal.UnframeFile(idxMagic, data)
	if err != nil {
		return 0, start, end, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	d := &decoder{b: body}
	id, start, end = d.count("index id"), d.time("start"), d.time("end")
	x = &segIndex{}
	// An arc takes at least three bytes, which bounds what a corrupt count
	// can make the decoder reserve.
	n := d.count("live arc")
	x.live = make([]oem.Arc, 0, min(n, len(d.b)/3))
	for i := 0; i < n && d.err == nil; i++ {
		a := d.arc()
		if i > 0 && compareArcs(x.live[i-1], a) >= 0 {
			d.fail("live arcs out of order", nil)
		}
		x.live = append(x.live, a)
	}
	x.upd = readSection(d, "upd node",
		func() oem.NodeID { return oem.NodeID(d.uvarint("upd node id")) }, cmp.Compare[oem.NodeID],
		func() updAnnot {
			at := d.time("upd time")
			return updAnnot{At: at, Old: d.value("upd old value")}
		})
	x.arcs = readSection(d, "arc", d.arc, compareArcs,
		func() doem.ArcAnnot {
			kind := d.arcKind("arc annot kind")
			return doem.ArcAnnot{Kind: kind, At: d.time("arc annot time")}
		})
	if err := d.done(); err != nil {
		return 0, start, end, nil, err
	}
	return id, start, end, x, nil
}

// readSection reads what appendSection writes. Keys that are not strictly
// increasing fail the decoder.
func readSection[K, V any](d *decoder, what string, key func() K, cmp func(K, K) int, val func() V) section[K, V] {
	var s section[K, V]
	n := d.count(what)
	// A key and its chain length take at least two bytes.
	s.keys = make([]K, 0, min(n, len(d.b)/2))
	s.end = make([]int, 0, cap(s.keys))
	for i := 0; i < n && d.err == nil; i++ {
		k := key()
		if i > 0 && cmp(s.keys[i-1], k) >= 0 {
			d.fail(what+"s out of order", nil)
		}
		for j, m := 0, d.count(what+" chain"); j < m && d.err == nil; j++ {
			s.vals = append(s.vals, val())
		}
		s.keys = append(s.keys, k)
		s.end = append(s.end, len(s.vals))
	}
	return s
}

// ---- tail checkpoint payload ----

// encodeCheckpoint writes c as the tail checkpoint's payload. The wal
// checkpoint frame around it carries the CRC.
func encodeCheckpoint(c *checkpoint) []byte {
	body := append([]byte(nil), ckptMagic...)
	body = binary.AppendUvarint(body, uint64(c.sum.maxID))
	body = binary.AppendUvarint(body, uint64(len(c.segs)))
	for _, h := range c.segs {
		body = change.AppendTime(body, h.end)
		// Ascending ids, each written as its distance from the previous,
		// with its first old value.
		body = binary.AppendUvarint(body, uint64(len(h.upd)))
		prev := oem.NodeID(0)
		for i, n := range h.upd {
			body = binary.AppendUvarint(body, uint64(n-prev))
			body = change.AppendValue(body, h.first[i])
			prev = n
		}
	}

	parents := make([]oem.NodeID, 0, len(c.sum.registry))
	for n := range c.sum.registry {
		parents = append(parents, n)
	}
	sort.Slice(parents, func(i, j int) bool { return parents[i] < parents[j] })
	body = binary.AppendUvarint(body, uint64(len(parents)))
	for _, p := range parents {
		arcs := c.sum.registry[p]
		body = binary.AppendUvarint(body, uint64(p))
		body = binary.AppendUvarint(body, uint64(len(arcs)))
		for _, a := range arcs {
			// The parent is implied; keep the registry order, which is the
			// monolithic OutAll insertion order.
			body = change.AppendString(body, a.Label)
			body = binary.AppendUvarint(body, uint64(a.Child))
		}
	}

	creNodes := make([]oem.NodeID, 0, len(c.sum.cre))
	for n := range c.sum.cre {
		creNodes = append(creNodes, n)
	}
	sort.Slice(creNodes, func(i, j int) bool { return creNodes[i] < creNodes[j] })
	body = binary.AppendUvarint(body, uint64(len(creNodes)))
	for _, n := range creNodes {
		body = binary.AppendUvarint(body, uint64(n))
		body = change.AppendTime(body, c.sum.cre[n])
	}

	deadNodes := make([]oem.NodeID, 0, len(c.sum.dead))
	for n := range c.sum.dead {
		deadNodes = append(deadNodes, n)
	}
	sort.Slice(deadNodes, func(i, j int) bool { return deadNodes[i] < deadNodes[j] })
	body = binary.AppendUvarint(body, uint64(len(deadNodes)))
	for _, n := range deadNodes {
		body = binary.AppendUvarint(body, uint64(n))
		body = change.AppendValue(body, c.sum.dead[n])
	}

	statusArcs := make([]oem.Arc, 0, len(c.sum.sealedStatus))
	for a := range c.sum.sealedStatus {
		statusArcs = append(statusArcs, a)
	}
	sortArcs(statusArcs)
	body = binary.AppendUvarint(body, uint64(len(statusArcs)))
	for _, a := range statusArcs {
		body = appendArc(body, a)
		if c.sum.sealedStatus[a] == doem.AnnotAdd {
			body = append(body, 0)
		} else {
			body = append(body, 1)
		}
	}
	return doem.Append(body, c.active)
}

func decodeCheckpoint(data []byte) (*checkpoint, error) {
	if !bytes.HasPrefix(data, ckptMagic) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	d := &decoder{b: data[len(ckptMagic):]}
	c := &checkpoint{sum: summary{
		maxID:        oem.NodeID(d.uvarint("max id")),
		registry:     make(map[oem.NodeID][]oem.Arc),
		cre:          make(map[oem.NodeID]timestamp.Time),
		dead:         make(map[oem.NodeID]value.Value),
		sealedStatus: make(map[oem.Arc]doem.AnnotKind),
	}}
	start := timestamp.NegInf
	for i, n := 0, d.count("segment"); i < n && d.err == nil; i++ {
		h := &handle{id: i + 1, start: start, end: d.time("segment end")}
		m := d.count("upd node")
		h.upd = make([]oem.NodeID, 0, min(m, len(d.b)/2))
		h.first = make([]value.Value, 0, cap(h.upd))
		prev := oem.NodeID(0)
		for j := 0; j < m && d.err == nil; j++ {
			node := prev + oem.NodeID(d.uvarint("upd node id"))
			if node <= prev {
				d.fail("upd node ids out of order", nil)
			}
			h.upd = append(h.upd, node)
			h.first = append(h.first, d.value("upd first old value"))
			prev = node
		}
		c.segs = append(c.segs, h)
		start = h.end
	}
	for i, n := 0, d.count("registry parent"); i < n && d.err == nil; i++ {
		p := oem.NodeID(d.uvarint("registry parent id"))
		m := d.count("registry arc")
		arcs := make([]oem.Arc, 0, min(m, len(d.b)))
		for j := 0; j < m && d.err == nil; j++ {
			// Decoded labels are fresh allocations; canonicalize so the
			// registry shares backing strings with the active database.
			label := symbol.Canon(d.str("registry label"))
			arcs = append(arcs, oem.Arc{Parent: p, Label: label, Child: oem.NodeID(d.uvarint("registry child"))})
		}
		c.sum.registry[p] = arcs
	}
	for i, n := 0, d.count("cre"); i < n && d.err == nil; i++ {
		node := oem.NodeID(d.uvarint("cre node"))
		c.sum.cre[node] = d.time("cre time")
	}
	for i, n := 0, d.count("dead"); i < n && d.err == nil; i++ {
		node := oem.NodeID(d.uvarint("dead node"))
		c.sum.dead[node] = d.value("dead value")
	}
	for i, n := 0, d.count("sealed status"); i < n && d.err == nil; i++ {
		a := d.arc()
		c.sum.sealedStatus[a] = d.arcKind("sealed status kind")
	}
	if d.err == nil {
		var n int
		var err error
		if c.active, n, err = doem.Decode(d.b); err != nil {
			d.fail("active segment", err)
		} else {
			d.b = d.b[n:]
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return c, nil
}

// compareArcs orders arcs by parent, then label, then child: the order of
// every arc list the formats write.
func compareArcs(a, b oem.Arc) int {
	if c := cmp.Compare(a.Parent, b.Parent); c != 0 {
		return c
	}
	if c := strings.Compare(a.Label, b.Label); c != 0 {
		return c
	}
	return cmp.Compare(a.Child, b.Child)
}

func sortArcs(arcs []oem.Arc) { slices.SortFunc(arcs, compareArcs) }
