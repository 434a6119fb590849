package predict

import (
	"codelayout/internal/codegen"
	"codelayout/internal/db"
	"codelayout/internal/probe"
)

// tableAddr places the per-shard prediction table in the shared data
// segment, above the shard directory: every fast-path decision reads its
// home shard's row, every finished transaction writes it back.
func tableAddr(home int) uint64 {
	return db.DataBase + 0x7F80_0000 + uint64(home)*64
}

// Check emits the fast-path decision's instruction stream: a prediction-
// table lookup and the predicted-local branch. It is called once per
// transaction attempt on fast-path machines, in place of (when predicted
// local) or in front of (when not) the shard router — so it must stay far
// cheaper than the ~hundreds of instructions shard_route costs.
func Check(pb probe.Probe, home int, local bool) {
	pb.Enter("predict_check")
	defer pb.Leave("predict_check")
	pb.Data(tableAddr(home), 48, false)
	pb.Branch("pred_local", local)
}

// Train emits the model-update stream: every finished transaction folds its
// observed cross-shard outcome back into its home shard's prediction table.
func Train(pb probe.Probe, home int, remote bool) {
	pb.Enter("predict_train")
	defer pb.Leave("predict_train")
	pb.Data(tableAddr(home), 48, true)
	pb.Branch("train_remote", remote)
}

// Models returns the predictor's code models for the modeled application
// image, mirroring site for site the probe calls Check and Train emit. Both
// are short straight-line table probes with no library dispatch: the whole
// point of the fast path is that deciding costs a dozen instructions where
// routing costs hundreds.
func Models() []codegen.FnSpec {
	return []codegen.FnSpec{
		{Name: "predict_check", Body: []codegen.Frag{
			codegen.Seq(4),
			codegen.If{Site: "pred_local",
				Then: []codegen.Frag{codegen.Seq(3)},
				Else: []codegen.Frag{codegen.Seq(2)}},
			codegen.Seq(2),
		}},
		{Name: "predict_train", Body: []codegen.Frag{
			codegen.Seq(3),
			codegen.If{Site: "train_remote",
				Then: []codegen.Frag{codegen.Seq(2)},
				Else: []codegen.Frag{codegen.Seq(2)}},
			codegen.Seq(2),
		}},
	}
}
