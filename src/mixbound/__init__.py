"""mixbound: block schedules, dependence-adapted norms, partition complexity
and Monte Carlo validation of concentration bounds for mixing processes."""

from .grid import (BlockSchedule, DivisorChain, block_schedule, divisor_chain,
                   first_block_length, first_block_lengths, lattice_members,
                   nearest_divisor)
from .mixing import (MixingEstimate, MixingProfile, estimate_tau, exponential_profile,
                     iid_profile, m_dependent_profile, parse_profile,
                     polynomial_profile, tabulated_profile)
from .norms import (QuantileCurve, active_lag_count, dependence_norm, dependence_norms,
                    holder_factor, holder_factors)
from .rates import (RateReport, UniversalConstants, closed_form_envelopes,
                    maximal_bound, rate_factor, rate_factors, rate_table,
                    regime_classify, strong_approx_rate, universal_constants)
from .chaining import (FunctionClass, NormFamily, PartitionSequence,
                       cell_diameter, chain_decomposition, complexity_exact,
                       complexity_greedy, l2_family, lr_family, schedule_family,
                       sequence_value)
from .processes import (ProcessModel, ar1_model, empirical_process_many, iid_model,
                        lazy_renewal_model, ma_model, mc_expected_sup, parse_model,
                        simulate_many)
from .function_classes import ClassMember, ProcessClass, catalog_names, make_class
from .coupling import (BernsteinReport, bernstein_check, block_independence_test,
                       coupled_paths, gaussian_couple, strong_approx_experiment,
                       sup_gaps)
from .report import ExperimentReport, dumps_canonical

__version__ = "0.1.0"
