package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

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
// The tail checkpoint's payload is the summary of sealed history — the end
// bound of every committed segment, the id high-water mark, the arc
// registry and the cre, dead and sealed-status summaries — followed by the
// active segment's stored DOEM (doem.Append). A segment is committed once a
// checkpoint counts it: a seal writes its .seg and .idx before that
// checkpoint, so a segment file beyond the count is a leftover of a seal
// that never committed, and Open removes it.
//
// Every segment file is framed by wal.FrameFile (a magic string and a
// trailing CRC-32C of everything before it) and written atomically by
// wal.AtomicWrite, the WAL checkpoint's own discipline: a crash leaves
// either the old file, the new file, or an invisible temp file — never a
// torn one the reader would trust. The .seg file is ground truth
// for its interval; the .idx file is derived from it and rebuilt when it is
// missing, damaged or does not match the checkpoint's bounds.
//
// All varints are unsigned LEB128; times and values use the internal/change
// encoders, so the formats share the WAL payload encoding end to end.
//
// A tail checkpoint without the payload magic (JSON, or a bare DOEM pair)
// and a directory holding a STATE file are layouts of earlier versions;
// Open refuses them with an error that names the file.

var (
	segMagic  = []byte("DSEG1\n")
	idxMagic  = []byte("DIDX1\n")
	ckptMagic = []byte("DCKP1\n")
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

// segIndex is the queryable annotation index of one sealed segment:
// time-sorted upd chains per node, add/rem chains per arc, and the complete
// set of arcs live at the segment's start (so liveness questions about any
// instant inside the interval resolve against this one segment).
type segIndex struct {
	upd         map[oem.NodeID][]doem.NodeAnnot
	arcs        map[oem.Arc][]doem.ArcAnnot
	liveAtStart map[oem.Arc]bool
}

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
// state: the end bound of every committed segment (segment i covers
// (ends[i-2], ends[i-1]], the first from -inf), the summary of their
// history, and the active segment.
type checkpoint struct {
	ends   []timestamp.Time
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
	b   []byte
	err error
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
	l := d.str("arc label")
	return oem.Arc{Parent: oem.NodeID(p), Label: l, Child: oem.NodeID(d.uvarint("arc child"))}
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

func encodeSegData(s *segData) ([]byte, error) {
	var body []byte
	body = binary.AppendUvarint(body, uint64(s.id))
	body = change.AppendTime(body, s.start)
	body = change.AppendTime(body, s.end)
	body, err := doem.AppendHistory(body, s.base, s.steps)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	body = binary.AppendUvarint(body, uint64(len(s.orphans)))
	for _, a := range s.orphans {
		body = appendArc(body, a)
	}
	return wal.FrameFile(segMagic, body), nil
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

	live := make([]oem.Arc, 0, len(x.liveAtStart))
	for a := range x.liveAtStart {
		live = append(live, a)
	}
	sortArcs(live)
	body = binary.AppendUvarint(body, uint64(len(live)))
	for _, a := range live {
		body = appendArc(body, a)
	}

	nodes := make([]oem.NodeID, 0, len(x.upd))
	for n := range x.upd {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	body = binary.AppendUvarint(body, uint64(len(nodes)))
	for _, n := range nodes {
		chain := x.upd[n]
		body = binary.AppendUvarint(body, uint64(n))
		body = binary.AppendUvarint(body, uint64(len(chain)))
		for _, a := range chain {
			body = change.AppendTime(body, a.At)
			body = change.AppendValue(body, a.Old)
		}
	}

	arcs := make([]oem.Arc, 0, len(x.arcs))
	for a := range x.arcs {
		arcs = append(arcs, a)
	}
	sortArcs(arcs)
	body = binary.AppendUvarint(body, uint64(len(arcs)))
	for _, a := range arcs {
		chain := x.arcs[a]
		body = appendArc(body, a)
		body = binary.AppendUvarint(body, uint64(len(chain)))
		for _, ann := range chain {
			if ann.Kind == doem.AnnotAdd {
				body = append(body, 0)
			} else {
				body = append(body, 1)
			}
			body = change.AppendTime(body, ann.At)
		}
	}
	return wal.FrameFile(idxMagic, body)
}

func decodeSegIndex(data []byte) (id int, start, end timestamp.Time, x *segIndex, err error) {
	body, err := wal.UnframeFile(idxMagic, data)
	if err != nil {
		return 0, start, end, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	d := &decoder{b: body}
	id, start, end = d.count("index id"), d.time("start"), d.time("end")
	x = &segIndex{
		upd:         make(map[oem.NodeID][]doem.NodeAnnot),
		arcs:        make(map[oem.Arc][]doem.ArcAnnot),
		liveAtStart: make(map[oem.Arc]bool),
	}
	for i, n := 0, d.count("live arc"); i < n && d.err == nil; i++ {
		x.liveAtStart[d.arc()] = true
	}
	for i, n := 0, d.count("upd node"); i < n && d.err == nil; i++ {
		node := oem.NodeID(d.uvarint("upd node id"))
		m := d.count("upd chain")
		chain := make([]doem.NodeAnnot, 0, min(m, len(d.b)))
		for j := 0; j < m && d.err == nil; j++ {
			at := d.time("upd time")
			chain = append(chain, doem.NodeAnnot{Kind: doem.AnnotUpd, At: at, Old: d.value("upd old value")})
		}
		x.upd[node] = chain
	}
	for i, n := 0, d.count("arc chain"); i < n && d.err == nil; i++ {
		a := d.arc()
		m := d.count("arc annot")
		chain := make([]doem.ArcAnnot, 0, min(m, len(d.b)))
		for j := 0; j < m && d.err == nil; j++ {
			kind := d.arcKind("arc annot kind")
			chain = append(chain, doem.ArcAnnot{Kind: kind, At: d.time("arc annot time")})
		}
		x.arcs[a] = chain
	}
	if err := d.done(); err != nil {
		return 0, start, end, nil, err
	}
	return id, start, end, x, nil
}

// ---- tail checkpoint payload ----

// encodeCheckpoint writes c as the tail checkpoint's payload. The wal
// checkpoint frame around it carries the CRC.
func encodeCheckpoint(c *checkpoint) ([]byte, error) {
	body := append([]byte(nil), ckptMagic...)
	body = binary.AppendUvarint(body, uint64(c.sum.maxID))
	body = binary.AppendUvarint(body, uint64(len(c.ends)))
	for _, t := range c.ends {
		body = change.AppendTime(body, t)
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
	for i, n := 0, d.count("segment"); i < n && d.err == nil; i++ {
		c.ends = append(c.ends, d.time("segment end"))
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

func sortArcs(arcs []oem.Arc) {
	sort.Slice(arcs, func(i, j int) bool {
		a, b := arcs[i], arcs[j]
		if a.Parent != b.Parent {
			return a.Parent < b.Parent
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.Child < b.Child
	})
}
