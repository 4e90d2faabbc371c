package fabric

import "sort"

// PeerSet is a set of peer ranks in [0, n) whose memory stays proportional
// to activity, not world size: a map allocated on the first Add. It backs
// the per-epoch dirty-peer tracking (which peers did this epoch touch) and
// the on-demand connection tables (which peers have established state).
//
// The zero value is an empty set over a zero-rank world; call Init before
// use. PeerSet is not safe for concurrent use — each image owns its sets.
type PeerSet struct {
	n int
	m map[int32]struct{} // nil until the first Add
}

// Init resets the set to empty over a world of n ranks.
func (s *PeerSet) Init(n int) {
	s.n = n
	s.m = nil
}

// Add inserts rank r, reporting whether it was newly added.
func (s *PeerSet) Add(r int) bool {
	if r < 0 || r >= s.n {
		return false
	}
	if _, ok := s.m[int32(r)]; ok {
		return false
	}
	if s.m == nil {
		s.m = make(map[int32]struct{})
	}
	s.m[int32(r)] = struct{}{}
	return true
}

// Remove deletes rank r if present.
func (s *PeerSet) Remove(r int) { delete(s.m, int32(r)) }

// Clear empties the set, keeping the map's capacity so steady-state epochs
// stop allocating.
func (s *PeerSet) Clear() { clear(s.m) }

// AppendSorted appends the members in ascending rank order to dst and
// returns the extended slice. Sorted iteration is what keeps flush walks
// deterministic: the virtual-clock charges of a flush walk depend on visit
// order, so map iteration order must never leak into the model.
func (s *PeerSet) AppendSorted(dst []int) []int {
	base := len(dst)
	for r := range s.m {
		dst = append(dst, int(r))
	}
	sort.Ints(dst[base:])
	return dst
}
