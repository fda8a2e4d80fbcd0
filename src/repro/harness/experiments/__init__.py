"""Per-experiment scenario modules (one per DESIGN.md experiment).

Importing this package registers every canonical scenario with
:mod:`repro.harness.registry`.  Each module keeps one experiment's
result dataclass and builder function together.
"""

from repro.harness.experiments.ablation import (  # noqa: F401
    ABLATION_VARIANTS,
    AblationResult,
    gtfrc_ablation_scenario,
)
from repro.harness.experiments.af_assurance import (  # noqa: F401
    AF_PROTOCOLS,
    AfResult,
    af_dumbbell_scenario,
)
from repro.harness.experiments.convergence import (  # noqa: F401
    ConvergenceResult,
    convergence_scenario,
)
from repro.harness.experiments.estimation import (  # noqa: F401
    EstimationAccuracyResult,
    estimation_accuracy_scenario,
)
from repro.harness.experiments.flash_crowd import (  # noqa: F401
    FLASH_CROWD_PROTOCOLS,
    FlashCrowdResult,
    flash_crowd_foreground_spec,
    flash_crowd_population,
    flash_crowd_scenario,
    flash_crowd_spec,
)
from repro.harness.experiments.hybrid import (  # noqa: F401
    FIDELITIES,
    HybridFlashCrowdResult,
    HybridMiceElephantsResult,
    hybrid_flash_crowd_scenario,
    hybrid_mice_elephants_scenario,
)
from repro.harness.experiments.friendliness import (  # noqa: F401
    FriendlinessResult,
    friendliness_scenario,
)
from repro.harness.experiments.hetero_sla import (  # noqa: F401
    HETERO_SLA_PROTOCOLS,
    HeteroSlaResult,
    hetero_sla_scenario,
)
from repro.harness.experiments.lossy_path import (  # noqa: F401
    LossyPathResult,
    lossy_path_scenario,
)
from repro.harness.experiments.mice_elephants import (  # noqa: F401
    MICE_ELEPHANTS_PROTOCOLS,
    MiceElephantsResult,
    mice_elephants_population,
    mice_elephants_scenario,
    mice_elephants_spec,
)
from repro.harness.experiments.negotiation_matrix import (  # noqa: F401
    NEGOTIATION_PAIRS,
    NegotiationMatrixResult,
    negotiation_scenario,
)
from repro.harness.experiments.parking_lot import (  # noqa: F401
    PARKING_LOT_PROTOCOLS,
    ParkingLotResult,
    parking_lot_scenario,
)
from repro.harness.experiments.receiver_load import (  # noqa: F401
    ReceiverLoadResult,
    receiver_load_scenario,
)
from repro.harness.experiments.reverse_path import (  # noqa: F401
    REVERSE_PATH_PROTOCOLS,
    ReversePathResult,
    reverse_path_scenario,
)
from repro.harness.experiments.reliability import (  # noqa: F401
    ReliabilityResult,
    reliability_scenario,
)
from repro.harness.experiments.selfish import (  # noqa: F401
    SelfishResult,
    selfish_receiver_scenario,
)
from repro.harness.experiments.smoothness import (  # noqa: F401
    SmoothnessResult,
    smoothness_scenario,
)
