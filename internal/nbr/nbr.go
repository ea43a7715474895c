package nbr

// GallopRatio is the length ratio beyond which the adaptive kernels switch
// from the linear merge to galloping search: when |large| ≥ GallopRatio ·
// |small|, probing the large list beats scanning it.
const GallopRatio = 16

// HubDegree is the center degree at which callers that intersect one fixed
// neighborhood against many others should switch to a pre-marked bitset
// Register: the O(d) marking cost is amortized across the center's pair
// scans, and each scan then costs O(|other|) word probes with no merge.
const HubDegree = 64

// Strategy identifies which kernel the adaptive dispatch would run.
type Strategy uint8

const (
	// StrategyLinear is the two-pointer merge over both lists.
	StrategyLinear Strategy = iota
	// StrategyGallop probes the large list by exponential + binary search.
	StrategyGallop
	// StrategyBitset is the pre-marked Register probe (chosen by callers
	// holding a Register, not by Choose — marking has per-center cost).
	StrategyBitset
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyLinear:
		return "linear"
	case StrategyGallop:
		return "gallop"
	default:
		return "bitset"
	}
}

// Choose returns the strategy the pairwise kernels use for lists of the
// given lengths. StrategyBitset is never returned here: it requires a
// Register pre-marked with one side, which only the caller can amortize.
func Choose(la, lb int) Strategy {
	if la > lb {
		la, lb = lb, la
	}
	if la > 0 && lb >= GallopRatio*la {
		return StrategyGallop
	}
	return StrategyLinear
}

// ChooseHub extends Choose for callers that can amortize Register marking
// across many scans of the same side. It is the central dispatch for the
// register strategy, replacing ad-hoc HubDegree comparisons at call sites:
//
//   - either length ≥ HubDegree → StrategyBitset: mark that side once and
//     probe the others element-by-element (Register.IntersectInto);
//   - otherwise → whatever the pairwise Choose picks.
//
// Callers testing only one amortizable side pass 0 for the other length
// (ChooseHub(la, 0) == StrategyBitset ⇔ la qualifies as a hub center).
// The pairwise kernels never select StrategyBitset on their own: marking
// has a cost only the caller can amortize, so IntersectInto/IntersectCount
// dispatch exclusively between linear and gallop.
func ChooseHub(la, lb int) Strategy {
	if la >= HubDegree || lb >= HubDegree {
		return StrategyBitset
	}
	return Choose(la, lb)
}

// IntersectInto appends a ∩ b to dst and returns the extended slice. Both
// inputs must be strictly ascending; the appended run is ascending. dst may
// be nil or a reused scratch buffer (pass dst[:0] to reuse).
func IntersectInto(dst, a, b []int32) []int32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	if len(b) >= GallopRatio*len(a) {
		return gallopInto(dst, a, b)
	}
	return linearInto(dst, a, b)
}

// IntersectCount returns |a ∩ b| without materializing the intersection.
func IntersectCount(a, b []int32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	if len(b) >= GallopRatio*len(a) {
		return gallopCount(a, b)
	}
	return linearCount(a, b)
}

// linearInto is the balanced two-pointer merge.
func linearInto(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

func linearCount(a, b []int32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// gallopTo returns the smallest index ≥ lo with b[idx] ≥ x (len(b) if none),
// by exponential probing from lo followed by binary search — the standard
// galloping primitive, O(log gap) per step.
func gallopTo(b []int32, lo int, x int32) int {
	step := 1
	hi := lo
	for hi < len(b) && b[hi] < x {
		lo = hi + 1
		hi = lo + step
		step <<= 1
	}
	if hi > len(b) {
		hi = len(b)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gallopInto intersects the small ascending list a into the large ascending
// list b by galloping; the cursor into b only moves forward.
func gallopInto(dst, a, b []int32) []int32 {
	lo := 0
	for _, x := range a {
		lo = gallopTo(b, lo, x)
		if lo >= len(b) {
			break
		}
		if b[lo] == x {
			dst = append(dst, x)
			lo++
			if lo >= len(b) {
				break
			}
		}
	}
	return dst
}

func gallopCount(a, b []int32) int {
	n, lo := 0, 0
	for _, x := range a {
		lo = gallopTo(b, lo, x)
		if lo >= len(b) {
			break
		}
		if b[lo] == x {
			n++
			lo++
			if lo >= len(b) {
				break
			}
		}
	}
	return n
}
