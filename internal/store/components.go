package store

import (
	"fmt"

	"complexobj/cobench"
	"complexobj/internal/longobj"
	"complexobj/nf2"
)

// Component tags for direct storage: the root record, each platform
// subtuple (with its nested connections) and each sightseeing subtuple are
// separately addressable parts of the stored object, which is what gives
// DASDBS-DSM its selective page access.
const (
	TagRoot        = 0
	TagPlatform    = 1
	TagSightseeing = 2
)

// RootType is the flat schema of a station's atomic root attributes. It
// doubles as the NSM_Station relation schema (Figure 3: "on the root level
// we only need the own root key").
var RootType = nf2.MustTupleType("StationRoot",
	nf2.Attr{Name: "Key", Type: nf2.IntType()},
	nf2.Attr{Name: "NoPlatform", Type: nf2.IntType()},
	nf2.Attr{Name: "NoSeeing", Type: nf2.IntType()},
	nf2.Attr{Name: "Name", Type: nf2.StringType(cobench.StrSize)},
)

// EncodeRoot serializes a root record; the result has a fixed size, which
// is what makes query 3's "update atomic attributes" a same-size in-place
// operation for every storage model.
func EncodeRoot(r cobench.RootRecord) ([]byte, error) {
	return RootType.Encode(nf2.NewTuple(
		nf2.IntValue(r.Key),
		nf2.IntValue(r.NoPlatform),
		nf2.IntValue(r.NoSeeing),
		nf2.StringValue(r.Name),
	))
}

// DecodeRoot parses an encoded root record. Like the other decoders on
// the object-assembly hot path it reads attribute-at-a-time instead of
// materializing a Tuple, so the only allocations are the strings that end
// up in the result.
func DecodeRoot(data []byte) (cobench.RootRecord, error) {
	var r cobench.RootRecord
	for i, dst := range [...]*int32{&r.Key, &r.NoPlatform, &r.NoSeeing} {
		v, err := RootType.DecodeAttr(data, i)
		if err != nil {
			return cobench.RootRecord{}, err
		}
		*dst = v.Int()
	}
	v, err := RootType.DecodeAttr(data, 3)
	if err != nil {
		return cobench.RootRecord{}, err
	}
	r.Name = v.Str()
	return r, nil
}

// DecodeRootKey extracts only the key from an encoded root record (value
// selections evaluate their predicate without materializing the record).
func DecodeRootKey(data []byte) (int32, error) {
	v, err := RootType.DecodeAttr(data, 0)
	if err != nil {
		return 0, err
	}
	return v.Int(), nil
}

// encodePlatform serializes one platform subtuple (with nested
// connections) using the benchmark schema.
func encodePlatform(p cobench.Platform) ([]byte, error) {
	conns := make([]nf2.Tuple, len(p.Conns))
	for j, c := range p.Conns {
		conns[j] = nf2.NewTuple(
			nf2.IntValue(c.LineNr),
			nf2.IntValue(c.KeyConnection),
			nf2.LinkValue(c.OidConnection),
			nf2.StringValue(c.DepartureTimes),
		)
	}
	return cobench.PlatformType.Encode(nf2.NewTuple(
		nf2.IntValue(p.Nr),
		nf2.IntValue(p.NoLine),
		nf2.IntValue(p.TicketCode),
		nf2.StringValue(p.Information),
		nf2.RelValue(conns),
	))
}

func decodePlatform(data []byte) (cobench.Platform, error) {
	var p cobench.Platform
	pt := cobench.PlatformType
	for _, f := range [...]struct {
		idx int
		dst *int32
	}{{cobench.PlNr, &p.Nr}, {cobench.PlNoLine, &p.NoLine}, {cobench.PlTicketCode, &p.TicketCode}} {
		v, err := pt.DecodeAttr(data, f.idx)
		if err != nil {
			return cobench.Platform{}, err
		}
		*f.dst = v.Int()
	}
	v, err := pt.DecodeAttr(data, cobench.PlInformation)
	if err != nil {
		return cobench.Platform{}, err
	}
	p.Information = v.Str()
	ct := pt.Attrs[cobench.PlConns].Type.Elem
	err = pt.VisitRel(data, cobench.PlConns, func(j, n int, elem []byte) error {
		if p.Conns == nil {
			p.Conns = make([]cobench.Connection, 0, n)
		}
		var c cobench.Connection
		for _, f := range [...]struct {
			idx int
			dst *int32
		}{{cobench.CoLineNr, &c.LineNr}, {cobench.CoKeyConnection, &c.KeyConnection}, {cobench.CoOid, &c.OidConnection}} {
			v, err := ct.DecodeAttr(elem, f.idx)
			if err != nil {
				return err
			}
			*f.dst = v.Int()
		}
		v, err := ct.DecodeAttr(elem, cobench.CoDepartureTimes)
		if err != nil {
			return err
		}
		c.DepartureTimes = v.Str()
		p.Conns = append(p.Conns, c)
		return nil
	})
	if err != nil {
		return cobench.Platform{}, err
	}
	return p, nil
}

// platformChildren extracts only the child references from an encoded
// platform subtuple (partial decoding: navigation projects the LINK
// attribute without materializing the strings — or, since it rides on
// VisitRel, any tuple scaffolding at all).
func platformChildren(data []byte) ([]int32, error) {
	var out []int32
	pt := cobench.PlatformType
	ct := pt.Attrs[cobench.PlConns].Type.Elem
	err := pt.VisitRel(data, cobench.PlConns, func(j, n int, elem []byte) error {
		v, err := ct.DecodeAttr(elem, cobench.CoOid)
		if err != nil {
			return err
		}
		if out == nil {
			out = make([]int32, 0, n)
		}
		out = append(out, v.Int())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func encodeSightseeing(g cobench.Sightseeing) ([]byte, error) {
	return cobench.SightseeingType.Encode(nf2.NewTuple(
		nf2.IntValue(g.Nr),
		nf2.StringValue(g.Description),
		nf2.StringValue(g.Location),
		nf2.StringValue(g.History),
		nf2.StringValue(g.Remarks),
	))
}

func decodeSightseeing(data []byte) (cobench.Sightseeing, error) {
	var g cobench.Sightseeing
	st := cobench.SightseeingType
	v, err := st.DecodeAttr(data, cobench.SeNr)
	if err != nil {
		return cobench.Sightseeing{}, err
	}
	g.Nr = v.Int()
	for _, f := range [...]struct {
		idx int
		dst *string
	}{{cobench.SeDescription, &g.Description}, {cobench.SeLocation, &g.Location},
		{cobench.SeHistory, &g.History}, {cobench.SeRemarks, &g.Remarks}} {
		v, err := st.DecodeAttr(data, f.idx)
		if err != nil {
			return cobench.Sightseeing{}, err
		}
		*f.dst = v.Str()
	}
	return g, nil
}

// EncodeComponents splits a station into its direct-storage components:
// the root record first (so it lands on the first data page), then the
// platforms, then the sightseeings.
func EncodeComponents(s *cobench.Station) ([]longobj.Component, error) {
	root, err := EncodeRoot(s.Root())
	if err != nil {
		return nil, err
	}
	comps := []longobj.Component{{Tag: TagRoot, Data: root}}
	for _, p := range s.Platforms {
		data, err := encodePlatform(p)
		if err != nil {
			return nil, err
		}
		comps = append(comps, longobj.Component{Tag: TagPlatform, Data: data})
	}
	for _, g := range s.Seeings {
		data, err := encodeSightseeing(g)
		if err != nil {
			return nil, err
		}
		comps = append(comps, longobj.Component{Tag: TagSightseeing, Data: data})
	}
	return comps, nil
}

// componentsKey returns the root key of a station's direct-storage
// components and validates every component exactly as DecodeComponents
// does — nf2's Check applies the decoders' bounds checks in their order,
// so the same encodings fail with the same errors — without allocating.
// A value selection uses it to skip decoding the objects it does not
// select.
func componentsKey(comps []longobj.Component) (int32, error) {
	var key int32
	seenRoot := false
	for _, c := range comps {
		var err error
		switch c.Tag {
		case TagRoot:
			if err = RootType.Check(c.Data); err == nil {
				key, err = DecodeRootKey(c.Data)
				seenRoot = true
			}
		case TagPlatform:
			err = cobench.PlatformType.Check(c.Data)
		case TagSightseeing:
			err = cobench.SightseeingType.Check(c.Data)
		default:
			err = fmt.Errorf("store: unknown component tag %d", c.Tag)
		}
		if err != nil {
			return 0, err
		}
	}
	if !seenRoot {
		return 0, fmt.Errorf("store: object without root component")
	}
	return key, nil
}

// DecodeComponents reassembles a station from direct-storage components.
func DecodeComponents(comps []longobj.Component) (*cobench.Station, error) {
	var s cobench.Station
	// Size the sub-object slices exactly: a station can carry dozens of
	// sightseeings, and append-doubling them per fetched object was a
	// measurable share of the serving path's allocations.
	var nPlat, nSee int
	for _, c := range comps {
		switch c.Tag {
		case TagPlatform:
			nPlat++
		case TagSightseeing:
			nSee++
		}
	}
	if nPlat > 0 {
		s.Platforms = make([]cobench.Platform, 0, nPlat)
	}
	if nSee > 0 {
		s.Seeings = make([]cobench.Sightseeing, 0, nSee)
	}
	seenRoot := false
	for _, c := range comps {
		switch c.Tag {
		case TagRoot:
			r, err := DecodeRoot(c.Data)
			if err != nil {
				return nil, err
			}
			s.SetRoot(r)
			seenRoot = true
		case TagPlatform:
			p, err := decodePlatform(c.Data)
			if err != nil {
				return nil, err
			}
			s.Platforms = append(s.Platforms, p)
		case TagSightseeing:
			g, err := decodeSightseeing(c.Data)
			if err != nil {
				return nil, err
			}
			s.Seeings = append(s.Seeings, g)
		default:
			return nil, fmt.Errorf("store: unknown component tag %d", c.Tag)
		}
	}
	if !seenRoot {
		return nil, fmt.Errorf("store: object without root component")
	}
	return &s, nil
}
