package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/oem"
	"repro/internal/oemio"
	"repro/internal/symbol"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// On-disk formats. A history directory holds:
//
//	wal/             the active segment's tail log (internal/wal)
//	seg-NNNNNN.seg   sealed segment N: checkpointed base snapshot + deltas
//	seg-NNNNNN.idx   sealed segment N's annotation index (derived, droppable)
//	STATE            store-level registry/annotation summary at the last seal
//
// Every file carries a magic string and a trailing CRC-32C of everything
// before it, and is written atomically (temp + fsync + rename + directory
// fsync), mirroring the WAL checkpoint discipline: a crash leaves either the
// old file, the new file, or an invisible temp file — never a torn one the
// reader would trust. The .seg file is ground truth for its interval; the
// .idx file is derived from it and rebuilt when it is missing or damaged.
// The STATE file is derived from the seg files plus the tail and is
// rebuilt by full replay if it is ever missing or damaged.
//
// All varints are unsigned LEB128; times and values use the internal/change
// encoders, so the formats share the WAL payload encoding end to end.

var (
	segMagic   = []byte("DSEG1\n")
	idxMagic   = []byte("DIDX1\n")
	stateMagic = []byte("DSTA1\n")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports an undecodable segment, index, or state file.
var ErrCorrupt = errors.New("segment: corrupt file")

// maxDecodeCount caps decoded element counts so corrupt length prefixes
// cannot trigger huge allocations (same bound as internal/change).
const maxDecodeCount = 1 << 24

const stateName = "STATE"

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

// storeState is the store-level summary maintained across seals: the global
// arc registry (every arc ever, per parent, in first-insertion order — the
// monolithic OutAll order), cre times and final values of nodes whose
// annotations have been sealed away from the active segment, and the id
// high-water mark.
type storeState struct {
	lastSeal timestamp.Time
	maxID    oem.NodeID
	segCount int
	registry map[oem.NodeID][]oem.Arc
	cre      map[oem.NodeID]timestamp.Time
	dead     map[oem.NodeID]value.Value
	// sealedStatus records, for every arc with at least one annotation in
	// sealed history, the kind of its most recent sealed annotation — the
	// arc's status at the last seal boundary. Arcs absent from both this
	// map and the active chains have no annotations at all and are
	// vacuously live (the monolithic convention).
	sealedStatus map[oem.Arc]doem.AnnotKind
}

// ---- encoding helpers ----

func appendArc(dst []byte, a oem.Arc) []byte {
	dst = binary.AppendUvarint(dst, uint64(a.Parent))
	dst = change.AppendString(dst, a.Label)
	return binary.AppendUvarint(dst, uint64(a.Child))
}

func decodeArc(data []byte) (oem.Arc, int, error) {
	var a oem.Arc
	p, n := binary.Uvarint(data)
	if n <= 0 {
		return a, 0, fmt.Errorf("%w: arc parent", ErrCorrupt)
	}
	off := n
	label, n, err := change.DecodeString(data[off:])
	if err != nil {
		return a, 0, fmt.Errorf("%w: arc label", ErrCorrupt)
	}
	off += n
	c, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return a, 0, fmt.Errorf("%w: arc child", ErrCorrupt)
	}
	off += n
	return oem.Arc{Parent: oem.NodeID(p), Label: label, Child: oem.NodeID(c)}, off, nil
}

func decodeCount(data []byte, what string) (int, int, error) {
	c, n := binary.Uvarint(data)
	if n <= 0 || c > maxDecodeCount {
		return 0, 0, fmt.Errorf("%w: %s count", ErrCorrupt, what)
	}
	return int(c), n, nil
}

// seal wraps body in magic + CRC trailer.
func sealFrame(magic, body []byte) []byte {
	buf := append([]byte(nil), magic...)
	buf = append(buf, body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// openFrame validates magic and CRC and returns the body.
func openFrame(magic, data []byte) ([]byte, error) {
	if len(data) < len(magic)+4 || !bytes.Equal(data[:len(magic)], magic) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return body[len(magic):], nil
}

// ---- segment (.seg) files ----

func encodeSegData(s *segData) ([]byte, error) {
	baseBytes, err := oemio.Marshal(s.base)
	if err != nil {
		return nil, fmt.Errorf("segment: encoding base: %w", err)
	}
	var body []byte
	body = binary.AppendUvarint(body, uint64(s.id))
	body = change.AppendTime(body, s.start)
	body = change.AppendTime(body, s.end)
	body = binary.AppendUvarint(body, uint64(len(baseBytes)))
	body = append(body, baseBytes...)
	body = binary.AppendUvarint(body, uint64(len(s.steps)))
	for _, step := range s.steps {
		body = change.AppendStep(body, step)
	}
	body = binary.AppendUvarint(body, uint64(len(s.orphans)))
	for _, a := range s.orphans {
		body = appendArc(body, a)
	}
	return sealFrame(segMagic, body), nil
}

func decodeSegData(data []byte) (*segData, error) {
	body, err := openFrame(segMagic, data)
	if err != nil {
		return nil, err
	}
	s := &segData{}
	id, n := binary.Uvarint(body)
	if n <= 0 || id > maxDecodeCount {
		return nil, fmt.Errorf("%w: segment id", ErrCorrupt)
	}
	s.id = int(id)
	body = body[n:]
	if s.start, n, err = change.DecodeTime(body); err != nil {
		return nil, err
	}
	body = body[n:]
	if s.end, n, err = change.DecodeTime(body); err != nil {
		return nil, err
	}
	body = body[n:]
	blen, n := binary.Uvarint(body)
	if n <= 0 || uint64(len(body)-n) < blen {
		return nil, fmt.Errorf("%w: base length", ErrCorrupt)
	}
	body = body[n:]
	if s.base, err = oemio.Unmarshal(body[:blen]); err != nil {
		return nil, fmt.Errorf("%w: base: %v", ErrCorrupt, err)
	}
	body = body[blen:]
	count, n, err := decodeCount(body, "step")
	if err != nil {
		return nil, err
	}
	body = body[n:]
	s.steps = make(change.History, 0, count)
	for i := 0; i < count; i++ {
		step, n, err := change.DecodeStep(body)
		if err != nil {
			return nil, err
		}
		body = body[n:]
		s.steps = append(s.steps, step)
	}
	count, n, err = decodeCount(body, "orphan arc")
	if err != nil {
		return nil, err
	}
	body = body[n:]
	for i := 0; i < count; i++ {
		a, n, err := decodeArc(body)
		if err != nil {
			return nil, err
		}
		body = body[n:]
		s.orphans = append(s.orphans, a)
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body))
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
	return sealFrame(idxMagic, body)
}

func decodeSegIndex(data []byte) (int, *segIndex, error) {
	body, err := openFrame(idxMagic, data)
	if err != nil {
		return 0, nil, err
	}
	id, n := binary.Uvarint(body)
	if n <= 0 || id > maxDecodeCount {
		return 0, nil, fmt.Errorf("%w: index id", ErrCorrupt)
	}
	body = body[n:]
	if _, n, err = change.DecodeTime(body); err != nil {
		return 0, nil, err
	}
	body = body[n:]
	if _, n, err = change.DecodeTime(body); err != nil {
		return 0, nil, err
	}
	body = body[n:]

	x := &segIndex{
		upd:         make(map[oem.NodeID][]doem.NodeAnnot),
		arcs:        make(map[oem.Arc][]doem.ArcAnnot),
		liveAtStart: make(map[oem.Arc]bool),
	}
	count, n, err := decodeCount(body, "live arc")
	if err != nil {
		return 0, nil, err
	}
	body = body[n:]
	for i := 0; i < count; i++ {
		a, n, err := decodeArc(body)
		if err != nil {
			return 0, nil, err
		}
		body = body[n:]
		x.liveAtStart[a] = true
	}

	count, n, err = decodeCount(body, "upd node")
	if err != nil {
		return 0, nil, err
	}
	body = body[n:]
	for i := 0; i < count; i++ {
		node, n := binary.Uvarint(body)
		if n <= 0 {
			return 0, nil, fmt.Errorf("%w: upd node id", ErrCorrupt)
		}
		body = body[n:]
		clen, n, err := decodeCount(body, "upd chain")
		if err != nil {
			return 0, nil, err
		}
		body = body[n:]
		chain := make([]doem.NodeAnnot, 0, clen)
		for j := 0; j < clen; j++ {
			at, n, err := change.DecodeTime(body)
			if err != nil {
				return 0, nil, err
			}
			body = body[n:]
			old, n, err := change.DecodeValue(body)
			if err != nil {
				return 0, nil, err
			}
			body = body[n:]
			chain = append(chain, doem.NodeAnnot{Kind: doem.AnnotUpd, At: at, Old: old})
		}
		x.upd[oem.NodeID(node)] = chain
	}

	count, n, err = decodeCount(body, "arc chain")
	if err != nil {
		return 0, nil, err
	}
	body = body[n:]
	for i := 0; i < count; i++ {
		a, n, err := decodeArc(body)
		if err != nil {
			return 0, nil, err
		}
		body = body[n:]
		clen, n, err := decodeCount(body, "arc annot")
		if err != nil {
			return 0, nil, err
		}
		body = body[n:]
		chain := make([]doem.ArcAnnot, 0, clen)
		for j := 0; j < clen; j++ {
			if len(body) == 0 || body[0] > 1 {
				return 0, nil, fmt.Errorf("%w: arc annot kind", ErrCorrupt)
			}
			kind := doem.AnnotAdd
			if body[0] == 1 {
				kind = doem.AnnotRem
			}
			body = body[1:]
			at, n, err := change.DecodeTime(body)
			if err != nil {
				return 0, nil, err
			}
			body = body[n:]
			chain = append(chain, doem.ArcAnnot{Kind: kind, At: at})
		}
		x.arcs[a] = chain
	}
	if len(body) != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body))
	}
	return int(id), x, nil
}

// ---- STATE files ----

func encodeState(st *storeState) []byte {
	var body []byte
	body = change.AppendTime(body, st.lastSeal)
	body = binary.AppendUvarint(body, uint64(st.maxID))
	body = binary.AppendUvarint(body, uint64(st.segCount))

	parents := make([]oem.NodeID, 0, len(st.registry))
	for n := range st.registry {
		parents = append(parents, n)
	}
	sort.Slice(parents, func(i, j int) bool { return parents[i] < parents[j] })
	body = binary.AppendUvarint(body, uint64(len(parents)))
	for _, p := range parents {
		arcs := st.registry[p]
		body = binary.AppendUvarint(body, uint64(p))
		body = binary.AppendUvarint(body, uint64(len(arcs)))
		for _, a := range arcs {
			// The parent is implied; keep the registry order, which is the
			// monolithic OutAll insertion order.
			body = change.AppendString(body, a.Label)
			body = binary.AppendUvarint(body, uint64(a.Child))
		}
	}

	creNodes := make([]oem.NodeID, 0, len(st.cre))
	for n := range st.cre {
		creNodes = append(creNodes, n)
	}
	sort.Slice(creNodes, func(i, j int) bool { return creNodes[i] < creNodes[j] })
	body = binary.AppendUvarint(body, uint64(len(creNodes)))
	for _, n := range creNodes {
		body = binary.AppendUvarint(body, uint64(n))
		body = change.AppendTime(body, st.cre[n])
	}

	deadNodes := make([]oem.NodeID, 0, len(st.dead))
	for n := range st.dead {
		deadNodes = append(deadNodes, n)
	}
	sort.Slice(deadNodes, func(i, j int) bool { return deadNodes[i] < deadNodes[j] })
	body = binary.AppendUvarint(body, uint64(len(deadNodes)))
	for _, n := range deadNodes {
		body = binary.AppendUvarint(body, uint64(n))
		body = change.AppendValue(body, st.dead[n])
	}

	statusArcs := make([]oem.Arc, 0, len(st.sealedStatus))
	for a := range st.sealedStatus {
		statusArcs = append(statusArcs, a)
	}
	sortArcs(statusArcs)
	body = binary.AppendUvarint(body, uint64(len(statusArcs)))
	for _, a := range statusArcs {
		body = appendArc(body, a)
		if st.sealedStatus[a] == doem.AnnotAdd {
			body = append(body, 0)
		} else {
			body = append(body, 1)
		}
	}
	return sealFrame(stateMagic, body)
}

func decodeState(data []byte) (*storeState, error) {
	body, err := openFrame(stateMagic, data)
	if err != nil {
		return nil, err
	}
	st := &storeState{
		registry:     make(map[oem.NodeID][]oem.Arc),
		cre:          make(map[oem.NodeID]timestamp.Time),
		dead:         make(map[oem.NodeID]value.Value),
		sealedStatus: make(map[oem.Arc]doem.AnnotKind),
	}
	var n int
	if st.lastSeal, n, err = change.DecodeTime(body); err != nil {
		return nil, err
	}
	body = body[n:]
	maxID, n := binary.Uvarint(body)
	if n <= 0 {
		return nil, fmt.Errorf("%w: max id", ErrCorrupt)
	}
	st.maxID = oem.NodeID(maxID)
	body = body[n:]
	segCount, n, err := decodeCount(body, "segment")
	if err != nil {
		return nil, err
	}
	st.segCount = segCount
	body = body[n:]

	parents, n, err := decodeCount(body, "registry parent")
	if err != nil {
		return nil, err
	}
	body = body[n:]
	for i := 0; i < parents; i++ {
		p, n := binary.Uvarint(body)
		if n <= 0 {
			return nil, fmt.Errorf("%w: registry parent id", ErrCorrupt)
		}
		body = body[n:]
		count, n, err := decodeCount(body, "registry arc")
		if err != nil {
			return nil, err
		}
		body = body[n:]
		arcs := make([]oem.Arc, 0, count)
		for j := 0; j < count; j++ {
			label, n, err := change.DecodeString(body)
			if err != nil {
				return nil, err
			}
			body = body[n:]
			child, n := binary.Uvarint(body)
			if n <= 0 {
				return nil, fmt.Errorf("%w: registry child", ErrCorrupt)
			}
			body = body[n:]
			// Decoded labels are fresh allocations; canonicalize so the
			// registry shares backing strings with the active database.
			arcs = append(arcs, oem.Arc{Parent: oem.NodeID(p), Label: symbol.Canon(label), Child: oem.NodeID(child)})
		}
		st.registry[oem.NodeID(p)] = arcs
	}

	count, n, err := decodeCount(body, "cre")
	if err != nil {
		return nil, err
	}
	body = body[n:]
	for i := 0; i < count; i++ {
		node, n := binary.Uvarint(body)
		if n <= 0 {
			return nil, fmt.Errorf("%w: cre node", ErrCorrupt)
		}
		body = body[n:]
		at, n, err := change.DecodeTime(body)
		if err != nil {
			return nil, err
		}
		body = body[n:]
		st.cre[oem.NodeID(node)] = at
	}

	count, n, err = decodeCount(body, "dead")
	if err != nil {
		return nil, err
	}
	body = body[n:]
	for i := 0; i < count; i++ {
		node, n := binary.Uvarint(body)
		if n <= 0 {
			return nil, fmt.Errorf("%w: dead node", ErrCorrupt)
		}
		body = body[n:]
		v, n, err := change.DecodeValue(body)
		if err != nil {
			return nil, err
		}
		body = body[n:]
		st.dead[oem.NodeID(node)] = v
	}

	count, n, err = decodeCount(body, "sealed status")
	if err != nil {
		return nil, err
	}
	body = body[n:]
	for i := 0; i < count; i++ {
		a, n, err := decodeArc(body)
		if err != nil {
			return nil, err
		}
		body = body[n:]
		if len(body) == 0 || body[0] > 1 {
			return nil, fmt.Errorf("%w: sealed status kind", ErrCorrupt)
		}
		if body[0] == 0 {
			st.sealedStatus[a] = doem.AnnotAdd
		} else {
			st.sealedStatus[a] = doem.AnnotRem
		}
		body = body[1:]
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body))
	}
	return st, nil
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

// ---- file I/O ----

// atomicWrite writes data to path via a temp file, fsync, rename, and
// directory fsync — the WAL checkpoint discipline.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("segment: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("segment: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("segment: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil // advisory on some platforms; best effort
	}
	d.Sync()
	d.Close()
	return nil
}

// segHeaderLen bounds the encoded size of a segment file's leading header
// fields (magic + id + start + end): 6 + 10 + 11 + 11 bytes, rounded up.
const segHeaderLen = 64

// decodeSegHeader parses just the leading header fields of a segment file
// from its first bytes, without CRC validation — Open uses it to enumerate
// sealed segments without reading their full ground truth. The trailing CRC
// still guards the body: loadSegData verifies it when the segment is first
// queried or re-indexed.
func decodeSegHeader(data []byte) (id int, start, end timestamp.Time, err error) {
	if len(data) < len(segMagic) || !bytes.Equal(data[:len(segMagic)], segMagic) {
		return 0, start, end, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body := data[len(segMagic):]
	v, n := binary.Uvarint(body)
	if n <= 0 || v > maxDecodeCount {
		return 0, start, end, fmt.Errorf("%w: segment id", ErrCorrupt)
	}
	id = int(v)
	body = body[n:]
	if start, n, err = change.DecodeTime(body); err != nil {
		return 0, start, end, err
	}
	body = body[n:]
	if end, _, err = change.DecodeTime(body); err != nil {
		return 0, start, end, err
	}
	return id, start, end, nil
}

// readSegHeader reads only the first segHeaderLen bytes of a sealed
// segment's file.
func readSegHeader(dir string, id int) ([]byte, error) {
	f, err := os.Open(filepath.Join(dir, segFileName(id)))
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	defer f.Close()
	buf := make([]byte, segHeaderLen)
	n, err := io.ReadFull(f, buf)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, fmt.Errorf("segment: %w", err)
	}
	return buf[:n], nil
}

// readSegFile reads a sealed segment's ground truth.
func readSegFile(dir string, id int) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, segFileName(id)))
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	return data, nil
}
