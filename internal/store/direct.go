package store

import (
	"fmt"

	"complexobj/cobench"
	"complexobj/internal/longobj"
)

// direct implements both direct storage models of §3.1 and §3.2. The
// physical layout is identical — each station is one clustered object with
// an object header — and only the access strategy differs:
//
//   - DSM (partial=false) always transfers every page of a touched object:
//     "complex objects are stored as a whole on as few disk pages as
//     possible" and are read back the same way;
//   - DASDBS-DSM (partial=true) consults the object header first and then
//     retrieves "only those pages ... that are actually used in a query",
//     and must therefore use per-tuple "change attribute" operations with
//     write-through page pools for updates (§5.3) instead of replacing the
//     whole tuple.
type direct struct {
	eng     *Engine
	partial bool
	objs    *longobj.Store
	addr    []longobj.Ref
	keyIdx  map[int32]int
}

func newDirect(e *Engine, partial bool) *direct {
	name := "DSM_Station"
	if partial {
		name = "DASDBS-DSM_Station"
	}
	return &direct{
		eng:     e,
		partial: partial,
		objs:    longobj.New(e.Dev, e.Pool, name),
		keyIdx:  make(map[int32]int),
	}
}

// Kind implements Model.
func (m *direct) Kind() Kind {
	if m.partial {
		return DASDBSDSM
	}
	return DSM
}

// Engine implements Model.
func (m *direct) Engine() *Engine { return m.eng }

// NumObjects implements Model.
func (m *direct) NumObjects() int { return len(m.addr) }

// Load implements Model.
func (m *direct) Load(stations []*cobench.Station) error {
	if len(m.addr) > 0 {
		return fmt.Errorf("store: %s already loaded", m.Kind())
	}
	for i, s := range stations {
		comps, err := EncodeComponents(s)
		if err != nil {
			return fmt.Errorf("store: encode station %d: %w", i, err)
		}
		ref, err := m.objs.Insert(comps)
		if err != nil {
			return fmt.Errorf("store: insert station %d: %w", i, err)
		}
		m.addr = append(m.addr, ref)
		m.keyIdx[s.Key] = i
	}
	return m.eng.Flush()
}

// fetch reads one whole object.
func (m *direct) fetch(i int) (*cobench.Station, error) {
	comps, err := m.objs.ReadAllShared(m.addr[i], nil)
	if err != nil {
		return nil, err
	}
	return DecodeComponents(comps)
}

// Component selections of the partial reads: query 3 reads only the root
// record, navigation the root and the platforms (which carry the child
// references).
func wantRoot(tag uint8, _ int) bool     { return tag == TagRoot }
func wantNavigate(tag uint8, _ int) bool { return tag == TagRoot || tag == TagPlatform }

// read returns the components of object i that want selects. DASDBS-DSM
// transfers only the pages holding them, DSM the whole object either way;
// only the selected components are copied. The result follows longobj's
// scratch contract (valid until the next read on this model).
func (m *direct) read(i int, want func(tag uint8, idx int) bool) ([]longobj.Component, error) {
	if m.partial {
		comps, _, err := m.objs.ReadParts(m.addr[i], want)
		return comps, err
	}
	return m.objs.ReadAllShared(m.addr[i], want)
}

// FetchByAddress implements Model (query 1a): direct models resolve the
// address in memory and transfer the object's pages.
func (m *direct) FetchByAddress(i int) (*cobench.Station, error) {
	if err := checkIndex(i, len(m.addr)); err != nil {
		return nil, err
	}
	return m.fetch(i)
}

// FetchByKey implements Model (query 1b): a value selection has no address
// to go by, so the whole relation is scanned — every object is read and
// its key compared (the paper estimates the full m pages for this query,
// set-oriented selection without early termination). Only the root key
// of each object is decoded; the other components are validated without
// being materialized (componentsKey), so the scan fails on exactly the
// corrupt objects a full decode fails on. The match is decoded in full
// right away, before the next read reuses the scratch it lives in.
func (m *direct) FetchByKey(key int32) (*cobench.Station, error) {
	if len(m.addr) == 0 {
		return nil, ErrNotLoaded
	}
	var found *cobench.Station
	for i := range m.addr {
		comps, err := m.objs.ReadAllShared(m.addr[i], nil)
		if err != nil {
			return nil, err
		}
		k, err := componentsKey(comps)
		if err != nil {
			return nil, err
		}
		if k == key {
			if found, err = DecodeComponents(comps); err != nil {
				return nil, err
			}
		}
	}
	if found == nil {
		return nil, fmt.Errorf("store: no station with key %d", key)
	}
	return found, nil
}

// ScanAll implements Model (query 1c).
func (m *direct) ScanAll(fn func(i int, s *cobench.Station) error) error {
	if len(m.addr) == 0 {
		return ErrNotLoaded
	}
	for i := range m.addr {
		s, err := m.fetch(i)
		if err != nil {
			return err
		}
		if err := fn(i, s); err != nil {
			return err
		}
	}
	return nil
}

// Navigate implements Model. DSM reads the whole object; DASDBS-DSM reads
// the header plus only the pages holding the root record and the platform
// components ("Since the Sightseeing sub-objects are not used in query 2
// and 3, we only need to retrieve the header page and a single data page").
// Either way only the root and platform components are copied and decoded.
func (m *direct) Navigate(i int) (cobench.RootRecord, []int32, error) {
	if err := checkIndex(i, len(m.addr)); err != nil {
		return cobench.RootRecord{}, nil, err
	}
	comps, err := m.read(i, wantNavigate)
	if err != nil {
		return cobench.RootRecord{}, nil, err
	}
	var root cobench.RootRecord
	var children []int32
	for _, c := range comps {
		switch c.Tag {
		case TagRoot:
			root, err = DecodeRoot(c.Data)
			if err != nil {
				return cobench.RootRecord{}, nil, err
			}
		case TagPlatform:
			kids, err := platformChildren(c.Data)
			if err != nil {
				return cobench.RootRecord{}, nil, err
			}
			children = append(children, kids...)
		}
	}
	return root, children, nil
}

// ReadRoot implements Model. DSM again pays the full object; DASDBS-DSM
// reads header + the root record's page only. Both copy only the root.
func (m *direct) ReadRoot(i int) (cobench.RootRecord, error) {
	if err := checkIndex(i, len(m.addr)); err != nil {
		return cobench.RootRecord{}, err
	}
	comps, err := m.read(i, wantRoot)
	if err != nil {
		return cobench.RootRecord{}, err
	}
	if len(comps) != 1 {
		return cobench.RootRecord{}, fmt.Errorf("store: object %d has %d root components", i, len(comps))
	}
	return DecodeRoot(comps[0].Data)
}

// UpdateRoots implements Model.
//
// DSM replaces the entire nested tuple — a batched "replace set of tuples"
// whose dirty pages are written together at the next flush/overflow.
//
// DASDBS-DSM "cannot replace the entire tuple since for each tuple only
// those pages are retrieved that are actually needed", so it issues one
// change-attribute operation per object, each paying an immediate page-pool
// write (§5.3) — the model's update anomaly.
func (m *direct) UpdateRoots(idxs []int32, mutate func(i int32, r *cobench.RootRecord)) error {
	for _, idx := range idxs {
		i := int(idx)
		if err := checkIndex(i, len(m.addr)); err != nil {
			return err
		}
		if m.partial {
			comps, cidx, err := m.objs.ReadParts(m.addr[i], wantRoot)
			if err != nil {
				return err
			}
			if len(comps) != 1 {
				return fmt.Errorf("store: object %d has %d root components", i, len(comps))
			}
			root, err := DecodeRoot(comps[0].Data)
			if err != nil {
				return err
			}
			mutate(idx, &root)
			data, err := EncodeRoot(root)
			if err != nil {
				return err
			}
			if _, err := m.objs.ChangeComponent(m.addr[i], cidx[0], data); err != nil {
				return err
			}
			continue
		}
		comps, err := m.objs.ReadAllShared(m.addr[i], nil)
		if err != nil {
			return err
		}
		replaced := false
		for ci := range comps {
			if comps[ci].Tag != TagRoot {
				continue
			}
			root, err := DecodeRoot(comps[ci].Data)
			if err != nil {
				return err
			}
			mutate(idx, &root)
			comps[ci].Data, err = EncodeRoot(root)
			if err != nil {
				return err
			}
			replaced = true
		}
		if !replaced {
			return fmt.Errorf("store: object %d lost its root", i)
		}
		if err := m.objs.ReplaceAll(m.addr[i], comps); err != nil {
			return err
		}
	}
	return nil
}

// UpdateObject implements Model: the whole object is re-encoded and
// replaced; if its page footprint changes it relocates to a fresh page run
// and the address table is updated (the in-memory table costs nothing, per
// the paper's accounting).
func (m *direct) UpdateObject(i int, mutate func(s *cobench.Station) error) error {
	if err := checkIndex(i, len(m.addr)); err != nil {
		return err
	}
	st, err := m.fetch(i)
	if err != nil {
		return err
	}
	oldKey := st.Key
	if err := mutate(st); err != nil {
		return err
	}
	st.NoPlatform = int32(len(st.Platforms))
	st.NoSeeing = int32(len(st.Seeings))
	comps, err := EncodeComponents(st)
	if err != nil {
		return err
	}
	ref, err := m.objs.Replace(m.addr[i], comps)
	if err != nil {
		return err
	}
	m.addr[i] = ref
	if st.Key != oldKey {
		delete(m.keyIdx, oldKey)
		m.keyIdx[st.Key] = i
	}
	return nil
}

// Flush implements Model.
func (m *direct) Flush() error { return m.eng.Flush() }

// Sizes implements Model.
func (m *direct) Sizes() SizeReport {
	n := len(m.addr)
	rel := RelationSize{Name: m.Kind().String() + "_Station", Tuples: n}
	if n > 0 {
		rel.TuplesPerObject = 1
		hdr, data := m.objs.LargePages()
		shared := m.objs.SharedHeap()
		rel.M = m.objs.TotalPages()
		rel.AvgTupleBytes = (float64(m.objs.LargeDataBytes()) + float64(shared.Bytes())) / float64(n)
		if m.objs.NumLarge() > 0 {
			rel.P = float64(hdr+data) / float64(m.objs.NumLarge())
		}
		if shared.NumPages() > 0 {
			rel.K = shared.TuplesPerPage()
		}
	}
	return SizeReport{Model: m.Kind().String(), Relations: []RelationSize{rel}}
}
