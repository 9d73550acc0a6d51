package change

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"

	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// Stable binary encoding of change operations, sets, and history steps —
// the record payload format of the write-ahead log (internal/wal). The
// encoding is self-delimiting and versioned by construction (one opcode
// byte per operation), uses varints for ids and counts, and is designed to
// decode defensively: corrupt or truncated input yields ErrCorrupt, never a
// panic or an over-allocation.
//
// Layout (all varints are unsigned LEB128 unless noted):
//
//	step  = time set
//	time  = infByte | 0x00 zigzag(sec)        (infByte: 0x01 -inf, 0x02 +inf)
//	set   = uvarint(len) op*
//	op    = 0x00 uvarint(node) value          creNode
//	      | 0x01 uvarint(node) value          updNode
//	      | 0x02 uvarint(parent) str uvarint(child)   addArc
//	      | 0x03 uvarint(parent) str uvarint(child)   remArc
//	value = kindByte payload                  (see appendValue)
//	str   = uvarint(len) bytes

// ErrCorrupt reports undecodable binary input.
var ErrCorrupt = errors.New("change: corrupt binary encoding")

// Operation opcodes.
const (
	opCreNode = 0x00
	opUpdNode = 0x01
	opAddArc  = 0x02
	opRemArc  = 0x03
)

// Timestamp markers.
const (
	timeFinite = 0x00
	timeNegInf = 0x01
	timePosInf = 0x02
)

// maxDecodeCount caps decoded element counts so corrupt length prefixes
// cannot trigger huge allocations.
const maxDecodeCount = 1 << 24

// AppendTime appends the binary encoding of a timestamp.
func AppendTime(dst []byte, t timestamp.Time) []byte {
	switch {
	case t.Equal(timestamp.NegInf):
		return append(dst, timeNegInf)
	case t.Equal(timestamp.PosInf):
		return append(dst, timePosInf)
	}
	dst = append(dst, timeFinite)
	return binary.AppendVarint(dst, t.Unix())
}

// DecodeTime decodes a timestamp, returning it and the bytes consumed.
func DecodeTime(data []byte) (timestamp.Time, int, error) {
	if len(data) == 0 {
		return timestamp.Time{}, 0, fmt.Errorf("%w: empty timestamp", ErrCorrupt)
	}
	switch data[0] {
	case timeNegInf:
		return timestamp.NegInf, 1, nil
	case timePosInf:
		return timestamp.PosInf, 1, nil
	case timeFinite:
		sec, n := binary.Varint(data[1:])
		if n <= 0 {
			return timestamp.Time{}, 0, fmt.Errorf("%w: bad timestamp varint", ErrCorrupt)
		}
		return timestamp.FromUnix(sec), 1 + n, nil
	default:
		return timestamp.Time{}, 0, fmt.Errorf("%w: unknown timestamp marker 0x%02x", ErrCorrupt, data[0])
	}
}

// AppendValue appends the binary encoding of an atomic or complex value —
// the same encoding operations embed. Exported for sibling on-disk formats
// (internal/segment) that store values outside an operation context.
func AppendValue(dst []byte, v value.Value) []byte { return appendValue(dst, v) }

// DecodeValue decodes one value from the front of data, returning it and
// the number of bytes consumed.
func DecodeValue(data []byte) (value.Value, int, error) { return decodeValue(data) }

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte { return appendString(dst, s) }

// DecodeString decodes one length-prefixed string from the front of data.
func DecodeString(data []byte) (string, int, error) { return decodeString(data) }

// appendValue appends the binary encoding of an atomic or complex value.
func appendValue(dst []byte, v value.Value) []byte {
	dst = append(dst, byte(v.Kind()))
	switch v.Kind() {
	case value.KindComplex, value.KindNull:
		// kind byte only
	case value.KindBool:
		if v.AsBool() {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case value.KindInt:
		dst = binary.AppendVarint(dst, v.AsInt())
	case value.KindReal:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.AsReal()))
	case value.KindString:
		dst = appendString(dst, v.AsString())
	case value.KindTime:
		dst = AppendTime(dst, v.AsTime())
	}
	return dst
}

func decodeValue(data []byte) (value.Value, int, error) {
	if len(data) == 0 {
		return value.Value{}, 0, fmt.Errorf("%w: empty value", ErrCorrupt)
	}
	kind := value.Kind(data[0])
	rest := data[1:]
	switch kind {
	case value.KindComplex:
		return value.Complex(), 1, nil
	case value.KindNull:
		return value.Null(), 1, nil
	case value.KindBool:
		if len(rest) < 1 || rest[0] > 1 {
			return value.Value{}, 0, fmt.Errorf("%w: bad bool", ErrCorrupt)
		}
		return value.Bool(rest[0] == 1), 2, nil
	case value.KindInt:
		i, n := binary.Varint(rest)
		if n <= 0 {
			return value.Value{}, 0, fmt.Errorf("%w: bad int varint", ErrCorrupt)
		}
		return value.Int(i), 1 + n, nil
	case value.KindReal:
		if len(rest) < 8 {
			return value.Value{}, 0, fmt.Errorf("%w: short real", ErrCorrupt)
		}
		return value.Real(math.Float64frombits(binary.LittleEndian.Uint64(rest))), 9, nil
	case value.KindString:
		s, n, err := decodeString(rest)
		if err != nil {
			return value.Value{}, 0, err
		}
		return value.Str(s), 1 + n, nil
	case value.KindTime:
		t, n, err := DecodeTime(rest)
		if err != nil {
			return value.Value{}, 0, err
		}
		return value.Time(t), 1 + n, nil
	default:
		return value.Value{}, 0, fmt.Errorf("%w: unknown value kind 0x%02x", ErrCorrupt, data[0])
	}
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func decodeString(data []byte) (string, int, error) {
	l, n := binary.Uvarint(data)
	if n <= 0 || l > maxDecodeCount {
		return "", 0, fmt.Errorf("%w: bad string length", ErrCorrupt)
	}
	if uint64(len(data)-n) < l {
		return "", 0, fmt.Errorf("%w: short string", ErrCorrupt)
	}
	return string(data[n : n+int(l)]), n + int(l), nil
}

// AppendOp appends the binary encoding of one operation.
func AppendOp(dst []byte, op Op) []byte {
	switch o := op.(type) {
	case CreNode:
		dst = append(dst, opCreNode)
		dst = binary.AppendUvarint(dst, uint64(o.Node))
		return appendValue(dst, o.Value)
	case UpdNode:
		dst = append(dst, opUpdNode)
		dst = binary.AppendUvarint(dst, uint64(o.Node))
		return appendValue(dst, o.Value)
	case AddArc:
		dst = append(dst, opAddArc)
		dst = binary.AppendUvarint(dst, uint64(o.Parent))
		dst = appendString(dst, o.Label)
		return binary.AppendUvarint(dst, uint64(o.Child))
	case RemArc:
		dst = append(dst, opRemArc)
		dst = binary.AppendUvarint(dst, uint64(o.Parent))
		dst = appendString(dst, o.Label)
		return binary.AppendUvarint(dst, uint64(o.Child))
	default:
		// reflect.TypeOf, unlike %T, leaves op on the caller's stack, so
		// encoding an operation value allocates nothing.
		panic(fmt.Sprintf("change: AppendOp: unknown operation type %s", reflect.TypeOf(op)))
	}
}

// DecodeOp decodes one operation, returning it and the bytes consumed.
func DecodeOp(data []byte) (Op, int, error) {
	if len(data) == 0 {
		return nil, 0, fmt.Errorf("%w: empty operation", ErrCorrupt)
	}
	code, rest := data[0], data[1:]
	used := 1
	readID := func() (oem.NodeID, bool) {
		id, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false
		}
		rest = rest[n:]
		used += n
		return oem.NodeID(id), true
	}
	switch code {
	case opCreNode, opUpdNode:
		node, ok := readID()
		if !ok {
			return nil, 0, fmt.Errorf("%w: bad node id", ErrCorrupt)
		}
		v, n, err := decodeValue(rest)
		if err != nil {
			return nil, 0, err
		}
		used += n
		if code == opCreNode {
			return CreNode{Node: node, Value: v}, used, nil
		}
		return UpdNode{Node: node, Value: v}, used, nil
	case opAddArc, opRemArc:
		parent, ok := readID()
		if !ok {
			return nil, 0, fmt.Errorf("%w: bad parent id", ErrCorrupt)
		}
		label, n, err := decodeString(rest)
		if err != nil {
			return nil, 0, err
		}
		rest = rest[n:]
		used += n
		child, ok := readID()
		if !ok {
			return nil, 0, fmt.Errorf("%w: bad child id", ErrCorrupt)
		}
		if code == opAddArc {
			return AddArc{Parent: parent, Label: label, Child: child}, used, nil
		}
		return RemArc{Parent: parent, Label: label, Child: child}, used, nil
	default:
		return nil, 0, fmt.Errorf("%w: unknown opcode 0x%02x", ErrCorrupt, code)
	}
}

// AppendSet appends the binary encoding of an operation set.
func AppendSet(dst []byte, s Set) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	for _, op := range s {
		dst = AppendOp(dst, op)
	}
	return dst
}

// DecodeSet decodes an operation set, returning it and the bytes consumed.
func DecodeSet(data []byte) (Set, int, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 || count > maxDecodeCount {
		return nil, 0, fmt.Errorf("%w: bad set length", ErrCorrupt)
	}
	used := n
	s := make(Set, 0, min(int(count), 1024))
	for i := uint64(0); i < count; i++ {
		op, opn, err := DecodeOp(data[used:])
		if err != nil {
			return nil, 0, err
		}
		s = append(s, op)
		used += opn
	}
	return s, used, nil
}

// AppendStep appends the binary encoding of one history step (t, ops).
func AppendStep(dst []byte, s Step) []byte {
	dst = AppendTime(dst, s.At)
	return AppendSet(dst, s.Ops)
}

// DecodeStep decodes one history step, returning it and the bytes consumed.
func DecodeStep(data []byte) (Step, int, error) {
	t, n, err := DecodeTime(data)
	if err != nil {
		return Step{}, 0, err
	}
	ops, m, err := DecodeSet(data[n:])
	if err != nil {
		return Step{}, 0, err
	}
	return Step{At: t, Ops: ops}, n + m, nil
}
