"""Feedback-driven generation of API requests with a pluggable LLM.

The pipeline parses ``APINAME(key=value, ...)`` blocks out of LLM output,
statically scans them against API documentation, classifies what went
wrong, and loops corrective prompts back to the model; requests that pass
are executed, and failing responses get documentation-retrieved error
details folded into a second, dynamic feedback loop.
"""

from .doc_model import (
    ApiDocument,
    ApiSpec,
    ParamSpec,
    ValueType,
    load_document,
    lookup_api,
    normalize_name,
)
from .dynamic_analyzer import (
    DynamicOutcome,
    ExactMatchJudge,
    FeedbackRecord,
    assemble_react_prompt,
    run_dynamic_loop,
)
from .gateways import (
    ApiExecutor,
    ApiResponse,
    ChatMessage,
    LlmClient,
    LlmReply,
    ScriptedLlm,
)
from .metrics import (
    BenchmarkReport,
    accuracy,
    error_distribution,
    overhead,
    population_variance,
    process_correctness,
    spearman,
)
from .orchestrator import (
    BenchTask,
    PipelineConfig,
    SessionLog,
    TaskResult,
    prepare_document,
    render_doc_prompt,
    run_benchmark,
    run_task,
)
from .request_codec import (
    ApiRequest,
    ParseOutcome,
    extract_request_block,
    infer_value_type,
    parse_request,
    serialize_request,
)
from .retrieval import (
    ChunkIndex,
    PreparedDoc,
    RelevantSet,
    RetrievedMessage,
    SimilarityModel,
    TfidfSimilarity,
    build_chunk_index,
    default_similarity,
    retrieve_error_message,
    retrieve_relevant_apis,
)
from .static_scanner import (
    DetectionFinding,
    ErrorType,
    classify_against_truth,
    detect,
    render_feedback,
)

__all__ = [
    "ApiDocument",
    "ApiExecutor",
    "ApiRequest",
    "ApiResponse",
    "ApiSpec",
    "BenchTask",
    "BenchmarkReport",
    "ChatMessage",
    "ChunkIndex",
    "DetectionFinding",
    "DynamicOutcome",
    "ErrorType",
    "ExactMatchJudge",
    "FeedbackRecord",
    "LlmClient",
    "LlmReply",
    "ParamSpec",
    "ParseOutcome",
    "PipelineConfig",
    "PreparedDoc",
    "RelevantSet",
    "RetrievedMessage",
    "ScriptedLlm",
    "SessionLog",
    "SimilarityModel",
    "TaskResult",
    "TfidfSimilarity",
    "ValueType",
    "accuracy",
    "assemble_react_prompt",
    "build_chunk_index",
    "classify_against_truth",
    "default_similarity",
    "detect",
    "error_distribution",
    "extract_request_block",
    "infer_value_type",
    "load_document",
    "lookup_api",
    "normalize_name",
    "overhead",
    "parse_request",
    "population_variance",
    "prepare_document",
    "process_correctness",
    "render_doc_prompt",
    "render_feedback",
    "retrieve_error_message",
    "retrieve_relevant_apis",
    "run_benchmark",
    "run_dynamic_loop",
    "run_task",
    "serialize_request",
    "spearman",
]

__version__ = "0.1.0"
