package spp

import "pmp/internal/mem"

// numFeatures is the PPF's feature count; the original uses nine
// hashed-perceptron features derived from the proposal's context.
const numFeatures = 9

// perceptron is the hashed-perceptron prefetch filter: one weight table
// per feature, summed at inference, trained by incrementing toward the
// observed outcome while the sum is within the training threshold.
type perceptron struct {
	cfg    Config
	tables [numFeatures][]int16
	wMax   int16
	wMin   int16
}

func newPerceptron(cfg Config) *perceptron {
	p := &perceptron{cfg: cfg}
	p.wMax = int16(1)<<uint(cfg.WeightBits-1) - 1
	p.wMin = -p.wMax - 1
	for i := range p.tables {
		p.tables[i] = make([]int16, cfg.TableSize)
	}
	return p
}

// features computes the nine feature-table indices for one proposal.
// The features follow the PPF paper: PC, PC⊕depth, PC⊕delta, address,
// cache line, page offset, signature, confidence bucket, and
// page⊕offset.
func (p *perceptron) features(pc uint64, target mem.Addr, delta, depth int, sig uint32, conf float64) [numFeatures]uint32 {
	bits := mem.CeilLog2(p.cfg.TableSize)
	confBucket := uint64(conf * 16)
	return [numFeatures]uint32{
		featureHash(pc, bits),
		featureHash(pc^uint64(depth)<<32, bits),
		featureHash(pc^uint64(uint32(int32(delta)))<<24, bits),
		featureHash(uint64(target), bits),
		featureHash(target.LineID(), bits),
		featureHash(uint64(target.PageOffset()), bits),
		featureHash(uint64(sig), bits),
		featureHash(confBucket, bits),
		featureHash(target.PageID()^uint64(target.PageOffset())<<40, bits),
	}
}

// featureHash folds one feature value into a bits-wide table index.
func featureHash(v uint64, bits int) uint32 { return uint32(mem.FoldXOR(mem.Mix64(v), bits)) }

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
	if s > p.cfg.TrainThresh && useful {
		return
	}
	if s < -p.cfg.TrainThresh && !useful {
		return
	}
	for i, f := range feats {
		w := p.tables[i][f]
		if useful {
			if w < p.wMax {
				p.tables[i][f] = w + 1
			}
		} else if w > p.wMin {
			p.tables[i][f] = w - 1
		}
	}
}
