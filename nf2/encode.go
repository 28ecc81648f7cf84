package nf2

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary encoding of a tuple (all integers big-endian):
//
//	u16                total encoded length, including this header
//	u16 × numAttrs     offset of each attribute payload from tuple start
//	attribute payloads in schema order:
//	  Int / Link       4 bytes
//	  String           u16 actual length + declared-capacity fixed bytes
//	  Rel              u16 subtuple count
//	                   u16 × count offsets of each subtuple relative to the
//	                                relation payload start
//	                   encoded subtuples
//
// The overheads are therefore explicit and small, in the spirit of the
// DASDBS mini-directories: 2+2·n bytes per tuple of n attributes, 2 bytes
// per string, 2+2·c bytes per relation of c subtuples. Fixed-capacity
// string payloads keep the paper's byte accounting (a STR is its declared
// size on disk regardless of content). The offset directory is what allows
// partial decoding (DecodeAttr) and hence the DASDBS-style access to parts
// of an object without materializing all of it.

// Encoding errors.
var (
	ErrTupleTooLarge = errors.New("nf2: encoded tuple exceeds 64 KiB")
	ErrCorrupt       = errors.New("nf2: corrupt encoding")
)

const maxEncoded = 1<<16 - 1

// EncodedSize returns the exact number of bytes Encode will produce for t.
// It does not validate; call Validate first for untrusted tuples.
func (tt *TupleType) EncodedSize(t Tuple) int {
	n := 2 + 2*len(tt.Attrs)
	for i, a := range tt.Attrs {
		switch a.Type.Kind {
		case Int, Link:
			n += 4
		case String:
			n += 2 + a.Type.Size
		case Rel:
			subs := t.Vals[i].rel
			n += 2 + 2*len(subs)
			for _, sub := range subs {
				n += a.Type.Elem.EncodedSize(sub)
			}
		}
	}
	return n
}

// Encode validates t against the schema and serializes it.
func (tt *TupleType) Encode(t Tuple) ([]byte, error) {
	if err := tt.Validate(t); err != nil {
		return nil, err
	}
	size := tt.EncodedSize(t)
	if size > maxEncoded {
		return nil, fmt.Errorf("%w: %s is %d bytes", ErrTupleTooLarge, tt.Name, size)
	}
	buf := make([]byte, 0, size)
	buf, err := tt.appendTuple(buf, t)
	if err != nil {
		return nil, err
	}
	if len(buf) != size {
		return nil, fmt.Errorf("nf2: internal size mismatch for %s: computed %d, wrote %d",
			tt.Name, size, len(buf))
	}
	return buf, nil
}

func (tt *TupleType) appendTuple(buf []byte, t Tuple) ([]byte, error) {
	base := len(buf)
	size := tt.EncodedSize(t)
	if size > maxEncoded {
		return nil, fmt.Errorf("%w: %s is %d bytes", ErrTupleTooLarge, tt.Name, size)
	}
	buf = append(buf, 0, 0)
	binary.BigEndian.PutUint16(buf[base:], uint16(size))
	dirBase := len(buf)
	for range tt.Attrs {
		buf = append(buf, 0, 0)
	}
	for i, a := range tt.Attrs {
		binary.BigEndian.PutUint16(buf[dirBase+2*i:], uint16(len(buf)-base))
		v := t.Vals[i]
		switch a.Type.Kind {
		case Int, Link:
			buf = append(buf, 0, 0, 0, 0)
			binary.BigEndian.PutUint32(buf[len(buf)-4:], uint32(v.i))
		case String:
			buf = append(buf, 0, 0)
			binary.BigEndian.PutUint16(buf[len(buf)-2:], uint16(len(v.s)))
			buf = append(buf, v.s...)
			for pad := a.Type.Size - len(v.s); pad > 0; pad-- {
				buf = append(buf, 0)
			}
		case Rel:
			relBase := len(buf)
			buf = append(buf, 0, 0)
			binary.BigEndian.PutUint16(buf[relBase:], uint16(len(v.rel)))
			subDir := len(buf)
			for range v.rel {
				buf = append(buf, 0, 0)
			}
			for j, sub := range v.rel {
				binary.BigEndian.PutUint16(buf[subDir+2*j:], uint16(len(buf)-relBase))
				var err error
				buf, err = a.Type.Elem.appendTuple(buf, sub)
				if err != nil {
					return nil, err
				}
			}
		}
	}
	return buf, nil
}

// EncodedLen returns the total length header of an encoded tuple, so
// callers can split concatenated encodings.
func EncodedLen(buf []byte) (int, error) {
	if len(buf) < 2 {
		return 0, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	n := int(binary.BigEndian.Uint16(buf))
	if n < 2 || n > len(buf) {
		return 0, fmt.Errorf("%w: length %d of %d", ErrCorrupt, n, len(buf))
	}
	return n, nil
}

// Decode deserializes one tuple from the start of buf (which may contain
// trailing bytes beyond the encoded tuple).
func (tt *TupleType) Decode(buf []byte) (Tuple, error) {
	t := Tuple{Vals: make([]Value, len(tt.Attrs))}
	for i := range tt.Attrs {
		v, err := tt.DecodeAttr(buf, i)
		if err != nil {
			return Tuple{}, err
		}
		t.Vals[i] = v
	}
	return t, nil
}

// Check validates the encoded tuple at the start of buf exactly as Decode
// does — the same bounds and string-length checks, in the same order —
// without materializing anything: it returns nil exactly when Decode
// would succeed, and otherwise the error Decode would return. A valid
// encoding is checked with zero allocations, so read paths that must not
// miss a corrupt encoding can validate the components they do not decode.
func (tt *TupleType) Check(buf []byte) error {
	for i, a := range tt.Attrs {
		tuple, off, err := tt.payload(buf, i)
		if err != nil {
			return err
		}
		if a.Type.Kind != Rel {
			continue
		}
		count := int(binary.BigEndian.Uint16(tuple[off:]))
		for j := 0; j < count; j++ {
			elem, err := tt.relElem(tuple, i, off, count, j)
			if err != nil {
				return err
			}
			if err := a.Type.Elem.Check(elem); err != nil {
				return err
			}
		}
	}
	return nil
}

// payload validates the tuple's length header and offset directory and
// the bounds of attribute i's payload (for strings also the stored
// length, for relations the count and element directory). It returns the
// tuple trimmed to its encoded length and the payload's offset in it.
// Every reader of an encoded attribute goes through here, so DecodeAttr,
// VisitRel and Check reject exactly the same encodings.
func (tt *TupleType) payload(buf []byte, i int) ([]byte, int, error) {
	if i < 0 || i >= len(tt.Attrs) {
		return nil, 0, fmt.Errorf("nf2: attribute %d out of range for %s", i, tt.Name)
	}
	total, err := EncodedLen(buf)
	if err != nil {
		return nil, 0, err
	}
	buf = buf[:total]
	need := 2 + 2*len(tt.Attrs)
	if total < need {
		return nil, 0, fmt.Errorf("%w: %s directory truncated", ErrCorrupt, tt.Name)
	}
	off := int(binary.BigEndian.Uint16(buf[2+2*i:]))
	a := tt.Attrs[i]
	if off < need || off > total {
		return nil, 0, fmt.Errorf("%w: %s.%s offset %d", ErrCorrupt, tt.Name, a.Name, off)
	}
	switch a.Type.Kind {
	case Int, Link:
		if off+4 > total {
			return nil, 0, fmt.Errorf("%w: %s.%s int payload", ErrCorrupt, tt.Name, a.Name)
		}
	case String:
		if off+2+a.Type.Size > total {
			return nil, 0, fmt.Errorf("%w: %s.%s string payload", ErrCorrupt, tt.Name, a.Name)
		}
		if n := int(binary.BigEndian.Uint16(buf[off:])); n > a.Type.Size {
			return nil, 0, fmt.Errorf("%w: %s.%s string length %d > %d",
				ErrCorrupt, tt.Name, a.Name, n, a.Type.Size)
		}
	case Rel:
		if off+2 > total {
			return nil, 0, fmt.Errorf("%w: %s.%s rel count", ErrCorrupt, tt.Name, a.Name)
		}
		count := int(binary.BigEndian.Uint16(buf[off:]))
		if off+2+2*count > total {
			return nil, 0, fmt.Errorf("%w: %s.%s rel directory", ErrCorrupt, tt.Name, a.Name)
		}
	default:
		return nil, 0, fmt.Errorf("nf2: unknown kind %v", a.Type.Kind)
	}
	return buf, off, nil
}

// relElem returns the encoding of element j (of count) of the relation
// payload at off in tuple (as returned by payload for attribute i),
// validating its directory entry.
func (tt *TupleType) relElem(tuple []byte, i, off, count, j int) ([]byte, error) {
	rel := int(binary.BigEndian.Uint16(tuple[off+2+2*j:]))
	subOff := off + rel
	if rel < 2+2*count || subOff >= len(tuple) {
		return nil, fmt.Errorf("%w: %s.%s[%d] offset", ErrCorrupt, tt.Name, tt.Attrs[i].Name, j)
	}
	return tuple[subOff:], nil
}

// VisitRel iterates the elements of Rel attribute i without materializing
// any tuples: fn is invoked once per element with its index, the element
// count and the element's encoded bytes (aliasing buf — valid only during
// the call), and decodes what it needs via Elem's DecodeAttr. This is the
// allocation-free counterpart of DecodeAttr for relation attributes; the
// object-assembly hot paths use it so that decoding a stored object
// allocates only the values that end up in the result.
func (tt *TupleType) VisitRel(buf []byte, i int, fn func(j, n int, elem []byte) error) error {
	if i < 0 || i >= len(tt.Attrs) {
		return fmt.Errorf("nf2: attribute %d out of range for %s", i, tt.Name)
	}
	a := tt.Attrs[i]
	if a.Type.Kind != Rel {
		return fmt.Errorf("nf2: %s.%s is not a relation attribute", tt.Name, a.Name)
	}
	tuple, off, err := tt.payload(buf, i)
	if err != nil {
		return err
	}
	count := int(binary.BigEndian.Uint16(tuple[off:]))
	for j := 0; j < count; j++ {
		elem, err := tt.relElem(tuple, i, off, count, j)
		if err != nil {
			return err
		}
		if err := fn(j, count, elem); err != nil {
			return err
		}
	}
	return nil
}

// DecodeAttr decodes only attribute i of the encoded tuple, using the
// offset directory for random access. This is the CPU-level counterpart of
// the paper's "only the attributes tuples that are needed will be
// projected/selected" (§2.2): storage models use it to read single
// attributes (e.g. the child references) without materializing the rest.
func (tt *TupleType) DecodeAttr(buf []byte, i int) (Value, error) {
	tuple, off, err := tt.payload(buf, i)
	if err != nil {
		return Value{}, err
	}
	a := tt.Attrs[i]
	switch a.Type.Kind {
	case Int:
		return IntValue(int32(binary.BigEndian.Uint32(tuple[off:]))), nil
	case Link:
		return LinkValue(int32(binary.BigEndian.Uint32(tuple[off:]))), nil
	case String:
		n := int(binary.BigEndian.Uint16(tuple[off:]))
		return StringValue(string(tuple[off+2 : off+2+n])), nil
	default: // Rel; payload rejects unknown kinds
		count := int(binary.BigEndian.Uint16(tuple[off:]))
		subs := make([]Tuple, count)
		for j := range subs {
			elem, err := tt.relElem(tuple, i, off, count, j)
			if err != nil {
				return Value{}, err
			}
			if subs[j], err = a.Type.Elem.Decode(elem); err != nil {
				return Value{}, err
			}
		}
		return RelValue(subs), nil
	}
}
