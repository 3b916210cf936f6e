package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// The benchmark generates its own inputs from the seed and hands the
// program nothing but the resulting CSV files and HTTP requests, so a
// change to the program's generators cannot change what is measured.

// point is one generated object: its ID and coordinates.
type point struct {
	id int64
	x  []float64
}

// gaussianPoints draws n points in dim dimensions from a mixture of
// clusters Gaussian blobs whose centers are uniform in [15, 85]^dim,
// each coordinate with standard deviation 5: the clustered shape of
// the ROADMAP reference workload. The centers are part of the workload
// and fixed; the seed draws the points. Random centers would make the
// cluster overlap, and with it the join's cost, differ from seed to
// seed, and the benchmark's spread would measure the inputs instead of
// the program.
func gaussianPoints(n, dim, clusters int, seed int64) []point {
	crng := rand.New(rand.NewSource(1))
	centers := make([][]float64, clusters)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = 15 + 70*crng.Float64()
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]point, n)
	for i := range out {
		ctr := centers[rng.Intn(clusters)]
		x := make([]float64, dim)
		for d := range x {
			x[d] = ctr[d] + 5*rng.NormFloat64()
		}
		out[i] = point{id: int64(i), x: x}
	}
	return out
}

// uniformPoints draws n points uniform in [0, 100)^dim.
func uniformPoints(n, dim int, seed int64) []point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]point, n)
	for i := range out {
		x := make([]float64, dim)
		for d := range x {
			x[d] = 100 * rng.Float64()
		}
		out[i] = point{id: int64(i), x: x}
	}
	return out
}

// csvBytes renders points as the "id,x1,x2,..." lines dataset.ReadCSV
// parses, with shortest round-trip float formatting.
func csvBytes(pts []point) []byte {
	var buf []byte
	for _, p := range pts {
		buf = strconv.AppendInt(buf, p.id, 10)
		for _, v := range p.x {
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, '\n')
	}
	return buf
}

// input is one generated CSV file and its content hash.
type input struct {
	name string
	path string
	sha  string
}

// writeInput writes pts as CSV under dir and returns the file with the
// SHA-256 of its bytes, which the result records so two runs can prove
// they measured the same inputs.
func writeInput(dir, name string, pts []point) (input, error) {
	raw := csvBytes(pts)
	sum := sha256.Sum256(raw)
	path := filepath.Join(dir, name+".csv")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return input{}, err
	}
	return input{name: name, path: path, sha: hex.EncodeToString(sum[:])}, nil
}

// zipfCDF is the cumulative distribution of ranks 0..n-1 with rank-r
// probability ∝ 1/(r+1)^s, so the low ranks form a hot set that
// repeats.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

// zipfDraw draws one rank from cdf.
func zipfDraw(cdf []float64, rng *rand.Rand) int {
	return min(sort.SearchFloat64s(cdf, rng.Float64()), len(cdf)-1)
}

// nearTo returns a copy of x moved by Gaussian noise of the given
// standard deviation per coordinate: a query point near the data.
func nearTo(x []float64, sd float64, rng *rand.Rand) []float64 {
	q := make([]float64, len(x))
	for d := range q {
		q[d] = x[d] + sd*rng.NormFloat64()
	}
	return q
}
