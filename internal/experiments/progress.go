package experiments

import (
	"fmt"
	"strconv"

	"github.com/ancrfid/ancrfid/internal/dfsa"
	"github.com/ancrfid/ancrfid/internal/fcat"
	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/plot"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/sim"
	"github.com/ancrfid/ancrfid/internal/treeproto"
)

// Progress is an extension experiment: the identification-progress curve
// (unique IDs collected vs slots used) of one run per protocol. It
// visualises *why* FCAT wins — almost every slot carries an ID now or
// later — and shows ABS's strictly paced tree walk versus DFSA's
// geometric backlog decay.
func Progress(opts Options) (Rendered, error) {
	opts = opts.withDefaults(1)
	n := opts.sizeOr(10000)
	sampleStep := n / 20
	if sampleStep < 1 {
		sampleStep = 1
	}
	out := Rendered{
		ID:     "progress",
		Title:  fmt.Sprintf("Identification progress: IDs collected vs slots (N = %d, single run)", n),
		Header: []string{"slot", "FCAT-2", "DFSA", "ABS"},
		Notes: []string{
			fmt.Sprintf("seed %d, run 0; curves sampled every %d slots", opts.Seed, sampleStep),
			"extension experiment: not a figure in the paper",
		},
	}

	protos := []struct {
		name string
		p    protocol.Protocol
	}{
		{"FCAT-2", fcat.New(fcat.Config{Lambda: 2})},
		{"DFSA", dfsa.New(dfsa.Config{})},
		{"ABS", treeproto.NewABS()},
	}

	curves := make([][]int, len(protos)) // identified count at each sample point
	maxSamples := 0
	for i, np := range protos {
		curve, err := progressCurve(opts, np.p, n, sampleStep)
		if err != nil {
			return out, err
		}
		curves[i] = curve
		if len(curve) > maxSamples {
			maxSamples = len(curve)
		}
		opts.progressf("progress: %s done (%d samples)\n", np.name, len(curve))
	}

	series := make([]plot.Series, len(protos))
	for i, np := range protos {
		series[i].Name = np.name
	}
	for s := 0; s < maxSamples; s++ {
		row := []string{strconv.Itoa(s * sampleStep)}
		for i := range protos {
			v := n // a finished protocol stays at N
			if s < len(curves[i]) {
				v = curves[i][s]
			}
			row = append(row, strconv.Itoa(v))
			series[i].X = append(series[i].X, float64(s*sampleStep))
			series[i].Y = append(series[i].Y, float64(v))
		}
		out.Rows = append(out.Rows, row)
	}
	out.Series = series
	return out, nil
}

// progressCurve runs one campaign run with a slot observer sampling the
// cumulative identified count every step slots.
func progressCurve(opts Options, p protocol.Protocol, tags, step int) ([]int, error) {
	var curve []int
	cfg := sim.Config{
		Tags:    tags,
		Runs:    1,
		Seed:    opts.Seed,
		Lambda:  2,
		TxModel: opts.TxModel,
		Tracer: obs.Func(func(ev obs.Event) {
			if ev.Kind == obs.SlotDone && ev.Seq%step == 0 {
				curve = append(curve, ev.N2)
			}
		}),
	}
	if _, err := sim.RunOnce(p, cfg, 0); err != nil {
		return nil, err
	}
	return curve, nil
}
