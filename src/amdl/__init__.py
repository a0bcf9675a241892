"""amdl: a desk-scale simulation lab for active multi-distribution learning."""

from .core import (ContractViolation, Hypothesis, HypothesisClass, LabeledDistribution,
                   MDLInstance, RandomizedHypothesis, agreement_labels, best_nu,
                   instance_from_dict, instance_to_dict, load_instance,
                   mixture_distribution, save_instance, worst_loss)
from .complexity import (ComplexityValue, disagreement_coefficient, star_number,
                         star_number_unqualified, vc_dimension)
from .oracles import (DegenerateAgreementRegion, OracleSet, QueryLedger,
                      SamplerFamily, imputed_family, induced_family,
                      plain_family, surrogate_family)
from .hedge import (HedgeResult, HedgeState, SolverConfig, hedge_step,
                    hyperparams, mdl_hedge_vc, naive_erm_baseline)
from .active import RunResult, active_large_eps, active_small_eps
from .rpu import (AbstainingClassifier, active_dist_free, passive_rpu_mdl,
                  robust_rpu_learn, threshold_majority)
from .runplan import LABEL_CEILING, RunPlan, batch_size, plan
from .families import (FamilySpec, SeparationReport, gen_agnostic_lb,
                       gen_example1, gen_prop1, gen_random, gen_star_lb,
                       kl_bernoulli, verify_separation)
from .harness import (ALGORITHMS, PROFILES, RunConfig, TrialRecord, can_fail,
                      records_to_csv, report, run_trials, sweep, sweep_to_csv)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
