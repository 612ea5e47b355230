package datagen

// The presets mirror the paper's three benchmarks (Table 2) at laptop
// scale. Relative characteristics are preserved:
//
//   - D1 (DBLP–Scholar): small, few attribute names, terse values → the
//     smallest blocking graph and the lowest BPE.
//   - D2 (IMDB–DBpedia): mid-sized with a very verbose second source
//     (many tokens per profile) → the highest BPE and the densest graph
//     relative to its size.
//   - D3 (Wikipedia infoboxes): the largest collections with thousands of
//     distinct attribute names → the largest graph overall.
//
// Scale multiplies the collection sizes (ground truth scales along);
// scale 1.0 keeps the default laptop-friendly sizes.

import "math"

// D1C returns the DBLP–Scholar-like Clean-Clean dataset.
func D1C(scale float64) Dataset {
	return Generate(Config{
		Name:       "D1C",
		Seed:       101,
		Size1:      scaled(2500, scale),
		Size2:      scaled(12000, scale),
		Duplicates: scaled(2300, scale),
		Vocabulary: scaled(15000, scale),
		ZipfS:      1.1,
		CoreTokens: 6,
		Source1: SourceConfig{
			AttributeNames: 4, AttributesPerProfile: 4,
			TokensPerProfile: 7, NoiseRate: 0.12, FillerRate: 0.90,
		},
		Source2: SourceConfig{
			AttributeNames: 4, AttributesPerProfile: 3,
			TokensPerProfile: 6, NoiseRate: 0.12, FillerRate: 0.90,
		},
	})
}

// D2C returns the IMDB–DBpedia-like Clean-Clean dataset with one verbose
// source.
func D2C(scale float64) Dataset {
	return Generate(Config{
		Name:       "D2C",
		Seed:       202,
		Size1:      scaled(9000, scale),
		Size2:      scaled(8000, scale),
		Duplicates: scaled(7000, scale),
		Vocabulary: scaled(25000, scale),
		ZipfS:      1.1,
		CoreTokens: 6,
		Source1: SourceConfig{
			AttributeNames: 4, AttributesPerProfile: 4,
			TokensPerProfile: 7, NoiseRate: 0.13, FillerRate: 0.70,
		},
		Source2: SourceConfig{
			AttributeNames: 7, AttributesPerProfile: 7,
			TokensPerProfile: 32, NoiseRate: 0.13, FillerRate: 0.55,
		},
	})
}

// D3C returns the Wikipedia-infobox-like Clean-Clean dataset: the largest,
// with thousands of attribute names.
func D3C(scale float64) Dataset {
	return Generate(Config{
		Name:       "D3C",
		Seed:       303,
		Size1:      scaled(10000, scale),
		Size2:      scaled(12000, scale),
		Duplicates: scaled(7500, scale),
		Vocabulary: scaled(40000, scale),
		ZipfS:      1.1,
		CoreTokens: 8,
		Source1: SourceConfig{
			AttributeNames: 3000, AttributesPerProfile: 10,
			TokensPerProfile: 14, NoiseRate: 0.14, FillerRate: 0.90,
		},
		Source2: SourceConfig{
			AttributeNames: 5000, AttributesPerProfile: 11,
			TokensPerProfile: 15, NoiseRate: 0.14, FillerRate: 0.90,
		},
	})
}

// D1D, D2D and D3D derive the Dirty ER datasets from the clean pairs, as
// the paper does (§6.1).
func D1D(scale float64) Dataset { return D1C(scale).ToDirty("D1D") }

// D2D is the Dirty variant of D2C.
func D2D(scale float64) Dataset { return D2C(scale).ToDirty("D2D") }

// D3D is the Dirty variant of D3C.
func D3D(scale float64) Dataset { return D3C(scale).ToDirty("D3D") }

// CleanDatasets generates the three Clean-Clean datasets.
func CleanDatasets(scale float64) []Dataset {
	return []Dataset{D1C(scale), D2C(scale), D3C(scale)}
}

// DirtyDatasets generates the three Dirty datasets.
func DirtyDatasets(scale float64) []Dataset {
	return []Dataset{D1D(scale), D2D(scale), D3D(scale)}
}

// AllDatasets generates all six datasets in the paper's order
// (D1C, D2C, D3C, D1D, D2D, D3D).
func AllDatasets(scale float64) []Dataset {
	return append(CleanDatasets(scale), DirtyDatasets(scale)...)
}

// ValidScale reports whether scale is a multiplier the presets honour: a
// finite number above 0. The presets run any other scale at ×1 or at one
// profile per source, so command lines reject it first.
func ValidScale(scale float64) bool { return scale > 0 && !math.IsInf(scale, 1) }

func scaled(n int, scale float64) int {
	if scale <= 0 {
		scale = 1
	}
	v := int(float64(n)*scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}
