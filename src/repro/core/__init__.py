"""S-Caffe core: the co-designed framework and its comparators."""

from .caffe import CaffeJob, run_caffe
from .cntk import CNTKJob, run_cntk
from .config import TrainConfig
from .frameworks import FRAMEWORKS, FrameworkFeatures, table1_rows
from .job import TrainingJob
from .metrics import FaultReport, TrainingReport, speedup
from .mpi_caffe import MPICaffeJob, run_mpi_caffe
from .param_server import ParameterServerJob, run_param_server
from .scaffe import SCaffeJob, run_scaffe
from .trainer import FRAMEWORK_NAMES, train
from .workload import LayerGroup, RealCompute, SolverBuffers, Workload

__all__ = [
    "CaffeJob", "run_caffe",
    "CNTKJob", "run_cntk",
    "TrainConfig",
    "FRAMEWORKS", "FrameworkFeatures", "table1_rows",
    "TrainingJob",
    "FaultReport", "TrainingReport", "speedup",
    "MPICaffeJob", "run_mpi_caffe",
    "ParameterServerJob", "run_param_server",
    "SCaffeJob", "run_scaffe",
    "FRAMEWORK_NAMES", "train",
    "LayerGroup", "RealCompute", "SolverBuffers", "Workload",
]
