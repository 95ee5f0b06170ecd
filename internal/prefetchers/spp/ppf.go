package spp

import "pmp/internal/mem"

// The PPF's parameters. numFeatures is the feature count; the original
// uses nine hashed-perceptron features derived from the proposal's
// context.
const (
	numFeatures = 9
	weightBits  = 6  // perceptron weight width
	tableBits   = 12 // log2 of the weights per feature table
	tableSize   = 1 << tableBits
	trainThresh = 64 // |sum| below which training continues
	tau         = 0  // activation threshold

	// A weight saturates at the bounds of its weightBits-wide range.
	wMax = 1<<(weightBits-1) - 1
	wMin = -wMax - 1
)

// perceptron is the hashed-perceptron prefetch filter: one weight table
// per feature, summed at inference, trained by incrementing toward the
// observed outcome while the sum is within the training threshold.
type perceptron struct {
	tables [numFeatures][tableSize]int16
}

// features computes the nine feature-table indices for one proposal.
// The features follow the PPF paper: PC, PC⊕depth, PC⊕delta, address,
// cache line, page offset, signature, confidence bucket, and
// page⊕offset.
func (p *perceptron) features(pc uint64, target mem.Addr, delta, depth int, sig uint32, conf float64) [numFeatures]uint32 {
	confBucket := uint64(conf * 16)
	return [numFeatures]uint32{
		featureHash(pc),
		featureHash(pc ^ uint64(depth)<<32),
		featureHash(pc ^ uint64(uint32(int32(delta)))<<24),
		featureHash(uint64(target)),
		featureHash(target.LineID()),
		featureHash(uint64(target.PageOffset())),
		featureHash(uint64(sig)),
		featureHash(confBucket),
		featureHash(target.PageID() ^ uint64(target.PageOffset())<<40),
	}
}

// featureHash folds one feature value into a feature-table index.
func featureHash(v uint64) uint32 { return uint32(mem.FoldXOR(mem.Mix64(v), tableBits)) }

// sum returns the perceptron activation for the feature vector.
func (p *perceptron) sum(feats [numFeatures]uint32) int {
	s := 0
	for i, f := range feats {
		s += int(p.tables[i][f])
	}
	return s
}

// train moves weights toward the observed outcome (useful -> up,
// useless -> down), saturating at the weight width, and only while the
// current activation is within the training threshold (perceptron
// training rule).
func (p *perceptron) train(feats [numFeatures]uint32, useful bool) {
	s := p.sum(feats)
	if s > trainThresh && useful {
		return
	}
	if s < -trainThresh && !useful {
		return
	}
	for i, f := range feats {
		w := p.tables[i][f]
		if useful {
			if w < wMax {
				p.tables[i][f] = w + 1
			}
		} else if w > wMin {
			p.tables[i][f] = w - 1
		}
	}
}
