package mat

import "math"

// Vector helpers operate on plain []float64 slices; a dedicated type would
// buy nothing here and would cost conversions at every call site.

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(ErrShape)
	}
	s := 0.0
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// AddVec returns a + b as a new slice.
func AddVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(ErrShape)
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Sum returns the sum of the entries of v.
func Sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return Sum(v) / float64(len(v))
}

// Distance returns the Euclidean distance between a and b.
func Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(ErrShape)
	}
	scale, ssq := 0.0, 1.0
	for i := range a {
		d := a[i] - b[i]
		if d == 0 {
			continue
		}
		ad := math.Abs(d)
		if scale < ad {
			r := scale / ad
			ssq = 1 + ssq*r*r
			scale = ad
		} else {
			r := ad / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}
