// Package longobj implements the DASDBS-style storage of large complex
// objects described in the paper's §4: "if a nested tuple is too large to
// be stored on a single page, the structure information is mapped onto a
// set of header pages, which is disjoint from the set of data pages that
// store the data".
//
// An object is a sequence of tagged components (the root record and each
// sub-object). Objects that fit one page are stored as ordinary records in
// a shared slotted heap ("with smaller objects ... several objects will
// share a single page", §5.3); larger objects get a contiguous run of
// pages: header page(s) holding the component directory, then dedicated
// data pages holding the component bytes back to back.
//
// Read paths mirror the two direct storage models. What a read fixes and
// what it copies are separate decisions:
//
//   - ReadAll and ReadAllShared fix the header and then all data pages,
//     in the same FixRun chunks whatever the caller wants — the plain DSM
//     behaviour ("complex objects are stored as a whole ... the pages that
//     store the tuple will not be shared", §3.1);
//   - ReadParts fixes the header first and then only the data pages that
//     hold requested components — the DASDBS-DSM behaviour ("from the set
//     of pages that stores the object, only those pages are retrieved that
//     are actually used in a query", §3.2).
//
// Both take a selection of components (by tag and directory index) and
// copy only the selected ones out of the fixed pages; the page fixes, and
// with them every paper counter, are the same whatever is selected from a
// DSM read. Every directory entry is validated against the object's data
// area before any data page is fixed, selected or not, so a corrupt
// directory yields ErrBadRef and never a fix outside the object.
//
// Writes are the mirror image: Insert and ReplaceAll put the directory
// and the component bytes straight into the page payloads, with no
// staging copy of the object.
// ChangeComponent implements the §5.3 update anomaly: DASDBS "change
// attribute" operations allocate a page pool of which all pages are
// written immediately, making DASDBS-DSM updates expensive for small
// objects.
//
// A Store has a single owner (the engine it belongs to) and reuses
// scratch buffers across calls on that assumption. ReadAllShared and
// ReadParts return scratch-backed results: the components (and ReadParts'
// index list) are valid only until the next ReadAllShared or ReadParts
// call on the same store. The storage models' fetch paths decode
// components into result objects immediately, so a steady-state object
// read allocates nothing beyond the values the caller decodes out — which
// keeps the benchmark server's allocation rate flat under sustained load.
// ReadAll returns freshly allocated components that belong to the caller.
package longobj
