package store

import (
	"fmt"

	"complexobj/cobench"
	"complexobj/internal/longobj"
	"complexobj/nf2"
)

// Nested-normalized relation schemas (paper Figure 4): the flat NSM tuples
// of one object are re-nested on the root (and parent) foreign keys, so
// exactly one tuple per relation per object remains and the foreign keys
// are not replicated in sibling tuples.
var (
	dnsmStationType = RootType

	dnsmPlatformType = nf2.MustTupleType("DASDBS-NSM_Platform",
		nf2.Attr{Name: "RootKey", Type: nf2.IntType()},
		nf2.Attr{Name: "Platforms", Type: nf2.RelType(nf2.MustTupleType("PlatformOfStation",
			nf2.Attr{Name: "OwnKey", Type: nf2.IntType()},
			nf2.Attr{Name: "PlatformNr", Type: nf2.IntType()},
			nf2.Attr{Name: "NoLine", Type: nf2.IntType()},
			nf2.Attr{Name: "TicketCode", Type: nf2.IntType()},
			nf2.Attr{Name: "Information", Type: nf2.StringType(cobench.StrSize)},
		))},
	)

	dnsmConnectionType = nf2.MustTupleType("DASDBS-NSM_Connection",
		nf2.Attr{Name: "RootKey", Type: nf2.IntType()},
		nf2.Attr{Name: "PerPlatform", Type: nf2.RelType(nf2.MustTupleType("ConnectionsOfPlatform",
			nf2.Attr{Name: "ParentKey", Type: nf2.IntType()},
			nf2.Attr{Name: "Connections", Type: nf2.RelType(nf2.MustTupleType("ConnectionOfStation",
				nf2.Attr{Name: "LineNr", Type: nf2.IntType()},
				nf2.Attr{Name: "KeyConnection", Type: nf2.IntType()},
				nf2.Attr{Name: "OidConnection", Type: nf2.LinkType()},
				nf2.Attr{Name: "DepartureTimes", Type: nf2.StringType(cobench.StrSize)},
			))},
		))},
	)

	dnsmSightseeingType = nf2.MustTupleType("DASDBS-NSM_Sightseeing",
		nf2.Attr{Name: "RootKey", Type: nf2.IntType()},
		nf2.Attr{Name: "Seeings", Type: nf2.RelType(nf2.MustTupleType("SightseeingOfStation",
			nf2.Attr{Name: "SeeingNr", Type: nf2.IntType()},
			nf2.Attr{Name: "Description", Type: nf2.StringType(cobench.StrSize)},
			nf2.Attr{Name: "Location", Type: nf2.StringType(cobench.StrSize)},
			nf2.Attr{Name: "History", Type: nf2.StringType(cobench.StrSize)},
			nf2.Attr{Name: "Remarks", Type: nf2.StringType(cobench.StrSize)},
		))},
	)
)

// dnsm implements DASDBS-NSM (§3.4): four relations of nested tuples, one
// tuple per relation per object, plus an in-memory transformation table
// that maps an object key to "the addresses of all the tuples that
// together store an object". Per the paper's accounting, the table itself
// costs no I/O (§5.1: "we did not account for additional I/Os needed ...
// to retrieve the tables with addresses").
type dnsm struct {
	eng *Engine

	stations *longobj.Store
	plats    *longobj.Store
	conns    *longobj.Store
	seeings  *longobj.Store

	refs   [][4]longobj.Ref // station, platform, connection, sightseeing
	keyIdx map[int32]int
}

// positions in refs entries.
const (
	dnsmStation = iota
	dnsmPlatform
	dnsmConnection
	dnsmSightseeing
)

func newDNSM(e *Engine) *dnsm {
	return &dnsm{
		eng:      e,
		stations: longobj.New(e.Dev, e.Pool, "DASDBS-NSM_Station"),
		plats:    longobj.New(e.Dev, e.Pool, "DASDBS-NSM_Platform"),
		conns:    longobj.New(e.Dev, e.Pool, "DASDBS-NSM_Connection"),
		seeings:  longobj.New(e.Dev, e.Pool, "DASDBS-NSM_Sightseeing"),
		keyIdx:   make(map[int32]int),
	}
}

// Kind implements Model.
func (m *dnsm) Kind() Kind { return DASDBSNSM }

// Engine implements Model.
func (m *dnsm) Engine() *Engine { return m.eng }

// NumObjects implements Model.
func (m *dnsm) NumObjects() int { return len(m.refs) }

// encode the four nested tuples of one station.
func dnsmTuples(s *cobench.Station) (station, plat, conn, seeing []byte, err error) {
	if station, err = EncodeRoot(s.Root()); err != nil {
		return
	}
	pts := make([]nf2.Tuple, len(s.Platforms))
	cts := make([]nf2.Tuple, 0, len(s.Platforms))
	for i, p := range s.Platforms {
		pts[i] = nf2.NewTuple(
			nf2.IntValue(int32(i+1)),
			nf2.IntValue(p.Nr),
			nf2.IntValue(p.NoLine),
			nf2.IntValue(p.TicketCode),
			nf2.StringValue(p.Information),
		)
		inner := make([]nf2.Tuple, len(p.Conns))
		for j, c := range p.Conns {
			inner[j] = nf2.NewTuple(
				nf2.IntValue(c.LineNr),
				nf2.IntValue(c.KeyConnection),
				nf2.LinkValue(c.OidConnection),
				nf2.StringValue(c.DepartureTimes),
			)
		}
		cts = append(cts, nf2.NewTuple(nf2.IntValue(int32(i+1)), nf2.RelValue(inner)))
	}
	if plat, err = dnsmPlatformType.Encode(nf2.NewTuple(nf2.IntValue(s.Key), nf2.RelValue(pts))); err != nil {
		return
	}
	if conn, err = dnsmConnectionType.Encode(nf2.NewTuple(nf2.IntValue(s.Key), nf2.RelValue(cts))); err != nil {
		return
	}
	gts := make([]nf2.Tuple, len(s.Seeings))
	for i, g := range s.Seeings {
		gts[i] = nf2.NewTuple(
			nf2.IntValue(g.Nr),
			nf2.StringValue(g.Description),
			nf2.StringValue(g.Location),
			nf2.StringValue(g.History),
			nf2.StringValue(g.Remarks),
		)
	}
	seeing, err = dnsmSightseeingType.Encode(nf2.NewTuple(nf2.IntValue(s.Key), nf2.RelValue(gts)))
	return
}

// Load implements Model.
func (m *dnsm) Load(stations []*cobench.Station) error {
	if len(m.refs) > 0 {
		return fmt.Errorf("store: %s already loaded", m.Kind())
	}
	for i, s := range stations {
		st, pl, co, se, err := dnsmTuples(s)
		if err != nil {
			return fmt.Errorf("store: encode station %d: %w", i, err)
		}
		var entry [4]longobj.Ref
		for slot, rec := range map[int][]byte{
			dnsmStation: st, dnsmPlatform: pl, dnsmConnection: co, dnsmSightseeing: se,
		} {
			ref, err := m.storeFor(slot).Insert([]longobj.Component{{Tag: 0, Data: rec}})
			if err != nil {
				return fmt.Errorf("store: insert station %d slot %d: %w", i, slot, err)
			}
			entry[slot] = ref
		}
		m.refs = append(m.refs, entry)
		m.keyIdx[s.Key] = i
	}
	return m.eng.Flush()
}

func (m *dnsm) storeFor(slot int) *longobj.Store {
	switch slot {
	case dnsmStation:
		return m.stations
	case dnsmPlatform:
		return m.plats
	case dnsmConnection:
		return m.conns
	default:
		return m.seeings
	}
}

// readTuple fetches the single nested tuple behind a ref.
func (m *dnsm) readTuple(slot, i int) ([]byte, error) {
	comps, err := m.storeFor(slot).ReadAllShared(m.refs[i][slot], nil)
	if err != nil {
		return nil, err
	}
	if len(comps) != 1 {
		return nil, fmt.Errorf("store: nested tuple %d/%d has %d components", slot, i, len(comps))
	}
	return comps[0].Data, nil
}

// assemble rebuilds the station from its four nested tuples.
func (m *dnsm) assemble(i int) (*cobench.Station, error) {
	stRec, err := m.readTuple(dnsmStation, i)
	if err != nil {
		return nil, err
	}
	root, err := DecodeRoot(stRec)
	if err != nil {
		return nil, err
	}
	s := &cobench.Station{}
	s.SetRoot(root)

	// The nested relations decode attribute-at-a-time over VisitRel (no
	// tuple scaffolding): only the values that end up in the station are
	// allocated, which keeps the assembly hot path cheap under serving
	// load.
	plRec, err := m.readTuple(dnsmPlatform, i)
	if err != nil {
		return nil, err
	}
	byOwn := map[int32]int{}
	plElem := dnsmPlatformType.Attrs[1].Type.Elem
	err = dnsmPlatformType.VisitRel(plRec, 1, func(j, n int, elem []byte) error {
		if s.Platforms == nil {
			s.Platforms = make([]cobench.Platform, 0, n)
		}
		var p cobench.Platform
		var own int32
		for idx, dst := range [...]*int32{&own, &p.Nr, &p.NoLine, &p.TicketCode} {
			v, err := plElem.DecodeAttr(elem, idx)
			if err != nil {
				return err
			}
			*dst = v.Int()
		}
		v, err := plElem.DecodeAttr(elem, 4)
		if err != nil {
			return err
		}
		p.Information = v.Str()
		s.Platforms = append(s.Platforms, p)
		byOwn[own] = len(s.Platforms) - 1
		return nil
	})
	if err != nil {
		return nil, err
	}

	coRec, err := m.readTuple(dnsmConnection, i)
	if err != nil {
		return nil, err
	}
	groupElem := dnsmConnectionType.Attrs[1].Type.Elem
	connElem := groupElem.Attrs[1].Type.Elem
	err = dnsmConnectionType.VisitRel(coRec, 1, func(j, n int, group []byte) error {
		v, err := groupElem.DecodeAttr(group, 0)
		if err != nil {
			return err
		}
		pi, ok := byOwn[v.Int()]
		if !ok {
			return fmt.Errorf("store: connection group with unknown parent %d", v.Int())
		}
		return groupElem.VisitRel(group, 1, func(j, n int, elem []byte) error {
			if s.Platforms[pi].Conns == nil {
				s.Platforms[pi].Conns = make([]cobench.Connection, 0, n)
			}
			var c cobench.Connection
			for idx, dst := range [...]*int32{&c.LineNr, &c.KeyConnection, &c.OidConnection} {
				v, err := connElem.DecodeAttr(elem, idx)
				if err != nil {
					return err
				}
				*dst = v.Int()
			}
			v, err := connElem.DecodeAttr(elem, 3)
			if err != nil {
				return err
			}
			c.DepartureTimes = v.Str()
			s.Platforms[pi].Conns = append(s.Platforms[pi].Conns, c)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	seRec, err := m.readTuple(dnsmSightseeing, i)
	if err != nil {
		return nil, err
	}
	seElem := dnsmSightseeingType.Attrs[1].Type.Elem
	err = dnsmSightseeingType.VisitRel(seRec, 1, func(j, n int, elem []byte) error {
		if s.Seeings == nil {
			s.Seeings = make([]cobench.Sightseeing, 0, n)
		}
		var g cobench.Sightseeing
		v, err := seElem.DecodeAttr(elem, 0)
		if err != nil {
			return err
		}
		g.Nr = v.Int()
		for idx, dst := range [...]*string{&g.Description, &g.Location, &g.History, &g.Remarks} {
			v, err := seElem.DecodeAttr(elem, idx+1)
			if err != nil {
				return err
			}
			*dst = v.Str()
		}
		s.Seeings = append(s.Seeings, g)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// FetchByAddress implements Model: the transformation table "immediately
// shows the addresses of all the tuples that together store an object".
func (m *dnsm) FetchByAddress(i int) (*cobench.Station, error) {
	if err := checkIndex(i, len(m.refs)); err != nil {
		return nil, err
	}
	return m.assemble(i)
}

// FetchByKey implements Model: "only the root tuple of the object is
// selected based on a value selection, whereupon we use the addresses in
// the index table to retrieve all other data by address" (§4). The value
// selection is a physical scan of the root relation (set-oriented, no
// early exit); the sub-relation tuples are then fetched by address.
func (m *dnsm) FetchByKey(key int32) (*cobench.Station, error) {
	if len(m.refs) == 0 {
		return nil, ErrNotLoaded
	}
	found := -1
	for i := range m.refs {
		rec, err := m.readTuple(dnsmStation, i)
		if err != nil {
			return nil, err
		}
		k, err := DecodeRootKey(rec)
		if err != nil {
			return nil, err
		}
		if k == key {
			found = i
		}
	}
	if found < 0 {
		return nil, fmt.Errorf("store: no station with key %d", key)
	}
	return m.assemble(found)
}

// ScanAll implements Model: every relation is read once; shared pages are
// touched once physically thanks to the cache.
func (m *dnsm) ScanAll(fn func(i int, s *cobench.Station) error) error {
	if len(m.refs) == 0 {
		return ErrNotLoaded
	}
	for i := range m.refs {
		s, err := m.assemble(i)
		if err != nil {
			return err
		}
		if err := fn(i, s); err != nil {
			return err
		}
	}
	return nil
}

// Navigate implements Model: the root tuple plus the object's single
// nested connection tuple. Platform and sightseeing relations stay
// untouched, which is why "the results for query 2b ... are independent of
// the number of Sightseeings" (§5.3). Only the OidConnection LINKs are
// projected out of the connection tuple, over VisitRel; each group is
// first validated with Check, so exactly the encodings that decoding the
// groups would reject still fail, without building any tuples.
func (m *dnsm) Navigate(i int) (cobench.RootRecord, []int32, error) {
	if err := checkIndex(i, len(m.refs)); err != nil {
		return cobench.RootRecord{}, nil, err
	}
	root, err := m.ReadRoot(i)
	if err != nil {
		return cobench.RootRecord{}, nil, err
	}
	coRec, err := m.readTuple(dnsmConnection, i)
	if err != nil {
		return cobench.RootRecord{}, nil, err
	}
	groupElem := dnsmConnectionType.Attrs[1].Type.Elem
	connElem := groupElem.Attrs[1].Type.Elem
	var children []int32
	err = dnsmConnectionType.VisitRel(coRec, 1, func(_, _ int, group []byte) error {
		if err := groupElem.Check(group); err != nil {
			return err
		}
		return groupElem.VisitRel(group, 1, func(_, _ int, conn []byte) error {
			v, err := connElem.DecodeAttr(conn, 2)
			if err != nil {
				return err
			}
			children = append(children, v.Int())
			return nil
		})
	})
	if err != nil {
		return cobench.RootRecord{}, nil, err
	}
	return root, children, nil
}

// ReadRoot implements Model: one small-tuple access in the root relation.
func (m *dnsm) ReadRoot(i int) (cobench.RootRecord, error) {
	if err := checkIndex(i, len(m.refs)); err != nil {
		return cobench.RootRecord{}, err
	}
	rec, err := m.readTuple(dnsmStation, i)
	if err != nil {
		return cobench.RootRecord{}, err
	}
	return DecodeRoot(rec)
}

// UpdateRoots implements Model: replaces the small root tuples in place;
// the dirty shared pages are written back together at flush ("only small
// root tuples in the DASDBS-NSM_Station relation are updated, of which
// there are many on a single page").
func (m *dnsm) UpdateRoots(idxs []int32, mutate func(i int32, r *cobench.RootRecord)) error {
	for _, idx := range idxs {
		i := int(idx)
		if err := checkIndex(i, len(m.refs)); err != nil {
			return err
		}
		root, err := m.ReadRoot(i)
		if err != nil {
			return err
		}
		mutate(idx, &root)
		rec, err := EncodeRoot(root)
		if err != nil {
			return err
		}
		if err := m.stations.ReplaceAll(m.refs[i][dnsmStation], []longobj.Component{{Tag: 0, Data: rec}}); err != nil {
			return err
		}
	}
	return nil
}

// UpdateObject implements Model: the four nested tuples are re-encoded and
// replaced; tuples whose footprint changes relocate within their relation
// and the transformation table entry is refreshed.
func (m *dnsm) UpdateObject(i int, mutate func(s *cobench.Station) error) error {
	if err := checkIndex(i, len(m.refs)); err != nil {
		return err
	}
	st, err := m.assemble(i)
	if err != nil {
		return err
	}
	oldKey := st.Key
	if err := mutate(st); err != nil {
		return err
	}
	st.NoPlatform = int32(len(st.Platforms))
	st.NoSeeing = int32(len(st.Seeings))
	stRec, plRec, coRec, seRec, err := dnsmTuples(st)
	if err != nil {
		return err
	}
	for slot, rec := range map[int][]byte{
		dnsmStation: stRec, dnsmPlatform: plRec, dnsmConnection: coRec, dnsmSightseeing: seRec,
	} {
		ref, err := m.storeFor(slot).Replace(m.refs[i][slot], []longobj.Component{{Tag: 0, Data: rec}})
		if err != nil {
			return err
		}
		m.refs[i][slot] = ref
	}
	if st.Key != oldKey {
		delete(m.keyIdx, oldKey)
		m.keyIdx[st.Key] = i
	}
	return nil
}

// Flush implements Model.
func (m *dnsm) Flush() error { return m.eng.Flush() }

// Sizes implements Model.
func (m *dnsm) Sizes() SizeReport {
	n := len(m.refs)
	rel := func(s *longobj.Store, name string) RelationSize {
		shared := s.SharedHeap()
		r := RelationSize{
			Name:   "DASDBS-NSM_" + name,
			Tuples: shared.NumRecords() + s.NumLarge(),
			M:      s.TotalPages(),
		}
		if n > 0 {
			r.TuplesPerObject = float64(r.Tuples) / float64(n)
		}
		if r.Tuples > 0 {
			r.AvgTupleBytes = (float64(shared.Bytes()) + float64(s.LargeDataBytes())) / float64(r.Tuples)
		}
		if shared.NumPages() > 0 {
			r.K = shared.TuplesPerPage()
		}
		if s.NumLarge() > 0 {
			hdr, data := s.LargePages()
			r.P = float64(hdr+data) / float64(s.NumLarge())
		}
		return r
	}
	return SizeReport{
		Model: m.Kind().String(),
		Relations: []RelationSize{
			rel(m.stations, "Station"),
			rel(m.plats, "Platform"),
			rel(m.conns, "Connection"),
			rel(m.seeings, "Sightseeing"),
		},
	}
}
